package job

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"

	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/pipeline"
	"repro/internal/sweep"
	"repro/internal/testbed"
)

// TestSpecJSONRoundTrip is the jobs-as-data satellite: a Spec built from
// flags survives a JSON round trip unchanged, so the same job can arrive
// from a file or a server request and build the identical runner.
func TestSpecJSONRoundTrip(t *testing.T) {
	specs := []Spec{
		Default(),
		{},
		{
			Backend:   "net",
			Nodes:     []string{"a:1", "b:2"},
			Workers:   8,
			Seed:      -3,
			TrainRows: 100,
			TestRows:  50,
			Trials:    7,
			CacheDir:  "/tmp/cells",
		},
		{Backend: "proc", Procs: 4, Seed: 42},
		{Backend: "net", Fleet: &fleet.Spec{NodesFile: "/tmp/nodes"}, Seed: 1},
		{Backend: "net", Fleet: &fleet.Spec{Register: "127.0.0.1:7900"}, Seed: 2},
	}
	for _, want := range specs {
		b, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		var got Spec
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip changed the spec:\n got %+v\nwant %+v\nwire %s", got, want, b)
		}
		if want.String() != string(b) {
			t.Errorf("String() %q != canonical JSON %q", want.String(), b)
		}
	}
}

// TestSpecFlagsMatchJSON checks the two front doors agree: parsing flags
// and unmarshaling the equivalent JSON produce the same Spec.
func TestSpecFlagsMatchJSON(t *testing.T) {
	fromFlags := Default()
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fromFlags.RegisterFlags(fs)
	fromFlags.RegisterSuiteFlags(fs)
	err := fs.Parse([]string{
		"-backend", "net", "-nodes", " a:1, b:2 ,", "-workers", "3",
		"-seed", "7", "-train", "1000", "-test", "250", "-trials", "5",
		"-cache-dir", "/tmp/x",
	})
	if err != nil {
		t.Fatal(err)
	}

	var fromJSON Spec
	wire := `{"backend":"net","nodes":["a:1","b:2"],"workers":3,"seed":7,
		"train_rows":1000,"test_rows":250,"trials":5,"cache_dir":"/tmp/x"}`
	if err := json.Unmarshal([]byte(wire), &fromJSON); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromFlags, fromJSON) {
		t.Fatalf("flag parse and JSON disagree:\nflags %+v\njson  %+v", fromFlags, fromJSON)
	}
}

// TestSpecFleetFlagsMatchJSON extends the two-front-doors check to the
// fleet surface: the -nodes-file/-fleet-register flags build
// the same Spec as the equivalent fleet JSON document.
func TestSpecFleetFlagsMatchJSON(t *testing.T) {
	cases := []struct {
		name  string
		flags []string
		wire  string
	}{
		{"nodes file",
			[]string{"-backend", "net", "-nodes-file", "/tmp/fleet.txt", "-seed", "3"},
			`{"backend":"net","fleet":{"nodes_file":"/tmp/fleet.txt"},"seed":3}`},
		// Stealing is no longer switchable; documents written with the
		// retired key still decode to the same spec.
		{"retired no_steal key",
			[]string{"-backend", "net", "-nodes-file", "/tmp/fleet.txt", "-seed", "3"},
			`{"backend":"net","fleet":{"nodes_file":"/tmp/fleet.txt","no_steal":true},"seed":3}`},
		{"registration coordinator",
			[]string{"-backend", "net", "-fleet-register", "127.0.0.1:7900", "-seed", "3"},
			`{"backend":"net","fleet":{"register":"127.0.0.1:7900"},"seed":3}`},
	}
	for _, tc := range cases {
		var fromFlags Spec
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fromFlags.RegisterFlags(fs)
		if err := fs.Parse(tc.flags); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var fromJSON Spec
		if err := json.Unmarshal([]byte(tc.wire), &fromJSON); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(fromFlags, fromJSON) {
			t.Errorf("%s: flag parse and JSON disagree:\nflags %+v\njson  %+v", tc.name, fromFlags, fromJSON)
		}
		if err := fromFlags.Validate(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	if err := (Spec{}).Validate(); err != nil {
		t.Fatalf("zero spec (implicit pool): %v", err)
	}
	if err := Default().Validate(); err != nil {
		t.Fatalf("default spec: %v", err)
	}
	if err := (Spec{Backend: "net"}).Validate(); err == nil {
		t.Fatal("net without nodes must error")
	}
	if err := (Spec{Backend: "teleport"}).Validate(); err == nil {
		t.Fatal("unknown backend must error")
	}
	if _, _, err := (Spec{Backend: "teleport"}).BuildRunner(); err == nil {
		t.Fatal("BuildRunner must validate")
	}
}

// TestSpecBuildRunnerPool checks the default path end to end: a pool
// runner wrapped in the memoizing cache that actually executes requests.
func TestSpecBuildRunnerPool(t *testing.T) {
	spec := Default()
	spec.Workers = 2
	runner, cleanup, err := spec.BuildRunner()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	if runner.Disk() != nil {
		t.Fatal("no cache dir: disk store must be nil")
	}
	dev, err := device.ByName("XR1")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := pipeline.NewScenario(dev)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []testbed.Request{{Scenario: sc, Trials: 2, Seed: 9, NoiseRel: testbed.DefaultNoiseRel}}
	ms, err := runner.Run(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].LatencyMs <= 0 {
		t.Fatalf("runner result: %+v", ms)
	}
}

// TestSpecBuildRunnerDiskCache checks CacheDir wires the persistent
// store in, and an unusable dir degrades to memory instead of failing.
func TestSpecBuildRunnerDiskCache(t *testing.T) {
	spec := Default()
	spec.CacheDir = t.TempDir()
	runner, cleanup, err := spec.BuildRunner()
	if err != nil {
		t.Fatal(err)
	}
	cleanup()
	if runner.Disk() == nil {
		t.Fatal("usable cache dir must open the disk store")
	}

	file := t.TempDir() + "/occupied"
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	spec.CacheDir = file
	degraded, cleanup2, err := spec.BuildRunner()
	if err != nil {
		t.Fatal(err)
	}
	cleanup2()
	if degraded.Disk() != nil {
		t.Fatal("unusable cache dir must degrade to memory")
	}
}

// TestSpecBuildSuite checks the suite inherits every knob from the spec.
func TestSpecBuildSuite(t *testing.T) {
	spec := Spec{Seed: 5, TrainRows: 4000, TestRows: 1000, Trials: 3, Workers: 2}
	suite, cleanup, err := spec.BuildSuite()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	if suite.Trials != 3 || suite.Workers != 2 {
		t.Fatalf("suite knobs: trials %d workers %d", suite.Trials, suite.Workers)
	}
	if _, ok := suite.Runner.(*sweep.CachedRunner); !ok {
		t.Fatalf("suite runner %T, want *sweep.CachedRunner", suite.Runner)
	}
	if _, _, err := (Spec{Backend: "nope"}).BuildSuite(); err == nil {
		t.Fatal("BuildSuite must validate")
	}
}
