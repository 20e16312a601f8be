package job

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/testbed"
)

// TestSpecValidateTable covers every invalid field combination Validate
// rejects, with the exact message each produces — the text is contract:
// the server reports it verbatim to submit clients, and the CLI prints
// it verbatim on stderr, so a drift here is a user-visible parity break.
func TestSpecValidateTable(t *testing.T) {
	valid := []Spec{
		{},
		Default(),
		{Backend: "pool"},
		{Backend: "proc", Procs: 4},
		{Backend: "net", Nodes: []string{"a:1"}},
		{Backend: "net", Fleet: &fleet.Spec{Nodes: []string{"a:1"}}},
		{Backend: "net", Fleet: &fleet.Spec{NodesFile: "/tmp/nodes"}},
		{Backend: "net", Fleet: &fleet.Spec{Register: "127.0.0.1:0"}},
		// The flat field and fleet.nodes are the same inline source, not
		// two competing ones.
		{Backend: "net", Nodes: []string{"a:1"}, Fleet: &fleet.Spec{Nodes: []string{"b:2"}}},
		{Backend: "pool", Fleet: &fleet.Spec{}}, // empty fleet document is inert
		{Workers: 8, Trials: 9, TrainRows: 10, TestRows: 11},
		// Paper scale and the work caps themselves are valid.
		{Trials: testbed.MaxTrials, TrainRows: testbed.MaxTrainRows, TestRows: testbed.MaxTestRows},
		{TrainRows: testbed.PaperTrainRows, TestRows: testbed.PaperTestRows},
	}
	for i, s := range valid {
		if err := s.Validate(); err != nil {
			t.Errorf("valid case %d rejected: %v", i, err)
		}
	}

	invalid := []struct {
		name string
		spec Spec
		want string
	}{
		{"unknown backend", Spec{Backend: "teleport"},
			`job: unknown -backend "teleport" (pool, proc, or net)`},
		{"net without a fleet", Spec{Backend: "net"},
			"job: -backend net requires a fleet: -nodes (host:port,...), -nodes-file, or -fleet-register"},
		{"net with an empty fleet", Spec{Backend: "net", Fleet: &fleet.Spec{}},
			"job: -backend net requires a fleet: -nodes (host:port,...), -nodes-file, or -fleet-register"},
		{"nodes without net (pool)", Spec{Backend: "pool", Nodes: []string{"a:1"}},
			"job: -nodes is only meaningful with -backend net, have -backend pool"},
		{"nodes without net (proc)", Spec{Backend: "proc", Nodes: []string{"a:1"}},
			"job: -nodes is only meaningful with -backend net, have -backend proc"},
		{"nodes without net (implicit pool)", Spec{Nodes: []string{"a:1"}},
			"job: -nodes is only meaningful with -backend net, have -backend pool"},
		{"fleet without net", Spec{Fleet: &fleet.Spec{NodesFile: "/tmp/nodes"}},
			"job: fleet options (-nodes-file, -fleet-register) are only meaningful with -backend net, have -backend pool"},
		{"two membership sources", Spec{Backend: "net", Nodes: []string{"a:1"}, Fleet: &fleet.Spec{NodesFile: "/tmp/nodes"}},
			"job: -nodes, -nodes-file, and -fleet-register are mutually exclusive; set exactly one membership source"},
		{"three membership sources", Spec{Backend: "net", Fleet: &fleet.Spec{Nodes: []string{"a:1"}, NodesFile: "f", Register: "r:1"}},
			"job: -nodes, -nodes-file, and -fleet-register are mutually exclusive; set exactly one membership source"},
		{"negative workers", Spec{Workers: -1},
			"job: -workers must be >= 0, have -1"},
		{"negative procs", Spec{Procs: -2},
			"job: -procs must be >= 0, have -2"},
		{"negative trials", Spec{Trials: -3},
			"job: -trials must be >= 0, have -3"},
		{"negative train rows", Spec{TrainRows: -4},
			"job: -train must be >= 0, have -4"},
		{"negative test rows", Spec{TestRows: -5},
			"job: -test must be >= 0, have -5"},
		{"trials above the cap", Spec{Trials: 10001},
			"job: -trials must be <= 10000, have 10001"},
		{"train rows above the cap", Spec{TrainRows: 1194651},
			"job: -train must be <= 1194650, have 1194651"},
		{"test rows above the cap", Spec{TestRows: 360831},
			"job: -test must be <= 360830, have 360831"},
		{"first failure wins", Spec{Workers: -1, Backend: "teleport", Trials: -9},
			"job: -workers must be >= 0, have -1"},
	}
	for _, tc := range invalid {
		err := tc.spec.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if err.Error() != tc.want {
			t.Errorf("%s: error text drifted:\ngot  %q\nwant %q", tc.name, err, tc.want)
		}
		// Every builder funnels through Validate, so the same spec must
		// fail identically everywhere.
		if _, _, berr := tc.spec.BuildRunner(); berr == nil || berr.Error() != err.Error() {
			t.Errorf("%s: BuildRunner error %q != Validate error %q", tc.name, berr, err)
		}
		if _, serr := tc.spec.BuildSuiteOn(nil); serr == nil || serr.Error() != err.Error() {
			t.Errorf("%s: BuildSuiteOn error %q != Validate error %q", tc.name, serr, err)
		}
	}
}

// TestParseGrid checks grid parsing: list splitting, float parsing, and
// the error texts the sweep flags have always produced.
func TestParseGrid(t *testing.T) {
	g, err := ParseGrid(" XR1 , XR2 ", "local,remote", "", "300, 500", "0")
	if err != nil {
		t.Fatal(err)
	}
	want := Grid{
		Devices: []string{"XR1", "XR2"},
		Modes:   []string{"local", "remote"},
		Sizes:   []float64{300, 500},
		Freqs:   []float64{0},
	}
	if !reflect.DeepEqual(g, want) {
		t.Fatalf("parsed grid %+v, want %+v", g, want)
	}
	if _, err := ParseGrid("XR1", "local", "", "tall", "0"); err == nil ||
		err.Error() != `-sizes: "tall" is not a number` {
		t.Fatalf("bad size error: %v", err)
	}
	if _, err := ParseGrid("XR1", "local", "", "300", "fast"); err == nil ||
		err.Error() != `-freqs: "fast" is not a number` {
		t.Fatalf("bad freq error: %v", err)
	}
}

// TestGridBuild checks name resolution against the catalogs, including
// the "all" device selector and the error texts for unknown names.
func TestGridBuild(t *testing.T) {
	g := Grid{Devices: []string{"all"}, Modes: []string{"local", "remote"}, Sizes: []float64{500}}
	built, err := g.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(built.Devices) < 2 {
		t.Fatalf(`"all" resolved to %d devices`, len(built.Devices))
	}
	if len(built.Modes) != 2 || len(built.FrameSizes) != 1 {
		t.Fatalf("axes lost in build: %+v", built)
	}

	if _, err := (Grid{}).Build(); err == nil ||
		err.Error() != "-devices: at least one device required" {
		t.Fatalf("empty devices error: %v", err)
	}
	if _, err := (Grid{Devices: []string{"XR1"}, Modes: []string{"sideways"}}).Build(); err == nil ||
		err.Error() != `-modes: unknown mode "sideways" (local or remote)` {
		t.Fatalf("bad mode error: %v", err)
	}
	if _, err := (Grid{Devices: []string{"XR99"}}).Build(); err == nil {
		t.Fatal("unknown device must error")
	}
	if _, err := (Grid{Devices: []string{"XR1"}, CNNs: []string{"M99"}}).Build(); err == nil {
		t.Fatal("unknown CNN must error")
	}
}

// TestJobValidate covers the workload-level checks layered on the spec.
func TestJobValidate(t *testing.T) {
	grid := &Grid{Devices: []string{"XR1"}, Modes: []string{"local"}, Sizes: []float64{500}}
	good := []Job{
		{Spec: Default(), Grid: grid},
		{Kind: KindSweep, Spec: Default(), Grid: grid, Format: "csv"},
		{Kind: KindReport, Spec: Default()},
		{Kind: KindReport, Spec: Default(), Stream: true},
		{Kind: KindPopulation, Spec: Default()}, // nil workload = default scenario
		{Kind: KindPopulation, Spec: Default(), Format: "table",
			Population: &Population{Scenario: "offload", Users: 12, Frames: 5, Shard: 4}},
		// The session cap itself is valid, as is the documented
		// million-user run at the default 120 frames.
		{Kind: KindPopulation, Spec: Default(),
			Population: &Population{Users: 1000000, Frames: testbed.MaxSessionFrames / 1000000}},
		{Kind: KindPopulation, Spec: Default(), Population: &Population{Users: 1000000}},
	}
	for i, j := range good {
		if err := j.Validate(); err != nil {
			t.Errorf("valid job %d rejected: %v", i, err)
		}
	}
	bad := []struct {
		job  Job
		want string
	}{
		{Job{Spec: Default()}, "job: a sweep job needs a grid"},
		{Job{Spec: Default(), Grid: grid, Format: "xml"},
			`-format: unknown format "xml" (table or csv)`},
		{Job{Kind: "dance", Spec: Default()},
			`job: unknown kind "dance" (sweep, report, or population)`},
		{Job{Spec: Spec{Backend: "net"}, Grid: grid},
			"job: -backend net requires a fleet: -nodes (host:port,...), -nodes-file, or -fleet-register"},
		{Job{Kind: KindPopulation, Spec: Default(), Population: &Population{Users: -1}},
			"job: -users must be >= 0, have -1"},
		{Job{Kind: KindPopulation, Spec: Default(), Population: &Population{Frames: -2}},
			"job: -frames must be >= 0, have -2"},
		{Job{Kind: KindPopulation, Spec: Default(), Population: &Population{Shard: -3}},
			"job: -shard must be >= 0, have -3"},
		{Job{Kind: KindPopulation, Spec: Default(), Population: &Population{Users: 1000000, Frames: 201}},
			"job: -users × -frames must be <= 200000000, have 1000000 × 201"},
		// The cap applies to the resolved defaults (10000 users, 120 frames).
		{Job{Kind: KindPopulation, Spec: Default(), Population: &Population{Frames: 20001}},
			"job: -users × -frames must be <= 200000000, have 10000 × 20001"},
		{Job{Kind: KindPopulation, Spec: Default(), Population: &Population{Users: 1666667}},
			"job: -users × -frames must be <= 200000000, have 1666667 × 120"},
		{Job{Kind: KindPopulation, Spec: Default(), Format: "csv"},
			`-format: population renders table output only, have "csv"`},
	}
	for _, tc := range bad {
		if err := tc.job.Validate(); err == nil || err.Error() != tc.want {
			t.Errorf("job %+v: got %q, want %q", tc.job, err, tc.want)
		}
	}
}

// TestJobJSONRoundTrip checks the job document — spec, grid, and
// workload knobs — survives JSON unchanged, Decode rejects garbage, and
// the kind/format defaults apply on the wire just as they do for flags.
func TestJobJSONRoundTrip(t *testing.T) {
	grid := &Grid{Devices: []string{"XR1", "XR2"}, Modes: []string{"remote"}, CNNs: []string{"M1"}, Sizes: []float64{300, 700}, Freqs: []float64{1.5}}
	jobs := []Job{
		{Kind: KindSweep, Spec: Default(), Grid: grid, Format: "csv", Stream: true},
		{Kind: KindPopulation, Spec: Default(),
			Population: &Population{Scenario: "multiplayer", Users: 500, Frames: 60, Shard: 100}},
	}
	for _, want := range jobs {
		b, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip changed the job:\n got %+v\nwant %+v", got, want)
		}
	}

	if _, err := Decode([]byte("{not json")); err == nil ||
		!strings.Contains(err.Error(), "job: bad job document") {
		t.Fatalf("garbage decode error: %v", err)
	}

	minimal, err := Decode([]byte(`{"spec":{"seed":1},"grid":{"devices":["XR1"],"sizes":[500]}}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := minimal.Validate(); err != nil {
		t.Fatalf("minimal sweep document invalid: %v", err)
	}
}

// TestPopulationJobMatchesDirectRun pins the population-jobs satellite:
// a population job routed through SuiteFor + Run — the server's path,
// and now the CLI's too — renders byte-identically to driving the sweep
// layer directly, and a nil workload means the documented defaults.
func TestPopulationJobMatchesDirectRun(t *testing.T) {
	spec := Spec{Seed: 11}
	render := func(p *Population) string {
		t.Helper()
		jb := Job{Kind: KindPopulation, Spec: spec, Population: p}
		runner, cleanup, err := spec.BuildRunner()
		if err != nil {
			t.Fatal(err)
		}
		defer cleanup()
		suite, err := jb.SuiteFor(runner)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := jb.Run(context.Background(), suite, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	got := render(&Population{Scenario: "offload", Users: 10, Frames: 4, Shard: 3})

	cohorts, err := scenario.Generate("offload", scenario.Params{Users: 10, Frames: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	runner, cleanup, err := spec.BuildRunner()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	res, err := sweep.RunPopulation(context.Background(), runner, cohorts, sweep.PopulationOptions{ShardUsers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if want := res.Render(); got != want {
		t.Fatalf("job path diverges from direct sweep:\n job  %q\ndirect %q", got, want)
	}

	// Shard size never changes bytes, and an explicit spelling of the
	// defaults matches the nil workload.
	if a, b := render(&Population{Scenario: "offload", Users: 10, Frames: 4, Shard: 3}),
		render(&Population{Scenario: "offload", Users: 10, Frames: 4, Shard: 7}); a != b {
		t.Fatalf("shard size changed population bytes:\n%q\n%q", a, b)
	}
	if got, want := (Job{Kind: KindPopulation}).population(),
		(Population{Scenario: "vehicular", Users: 10000, Frames: 120}); got != want {
		t.Fatalf("nil population workload resolves to %+v, want %+v", got, want)
	}

	// An unknown scenario fails with the generator's own message.
	jb := Job{Kind: KindPopulation, Spec: spec, Population: &Population{Scenario: "bogus"}}
	if err := jb.Run(context.Background(), &experiments.Suite{}, new(bytes.Buffer)); err == nil ||
		!strings.Contains(err.Error(), "bogus") {
		t.Fatalf("unknown scenario error: %v", err)
	}
}

// TestJobRunMatchesSuiteMethods pins that Run is a pure re-plumbing of
// the suite's own render paths: buffered and streamed runs of the same
// job emit identical bytes, for both workload kinds and both formats.
func TestJobRunMatchesSuiteMethods(t *testing.T) {
	spec := Spec{Seed: 42, TrainRows: 2000, TestRows: 500, Trials: 5, Workers: 2}
	grid := &Grid{Devices: []string{"XR1"}, Modes: []string{"local", "remote"}, Sizes: []float64{300, 500}}
	for _, format := range []string{"table", "csv"} {
		var buffered, streamed bytes.Buffer
		for _, tc := range []struct {
			stream bool
			out    *bytes.Buffer
		}{{false, &buffered}, {true, &streamed}} {
			jb := Job{Kind: KindSweep, Spec: spec, Grid: grid, Format: format, Stream: tc.stream}
			suite, cleanup, err := spec.BuildSuite()
			if err != nil {
				t.Fatal(err)
			}
			if err := jb.Run(context.Background(), suite, tc.out); err != nil {
				t.Fatal(err)
			}
			cleanup()
		}
		if buffered.String() != streamed.String() {
			t.Fatalf("%s: streamed bytes diverge from buffered:\nbuffered %q\nstreamed %q",
				format, buffered.String(), streamed.String())
		}
		if buffered.Len() == 0 {
			t.Fatalf("%s: empty output", format)
		}
	}
}
