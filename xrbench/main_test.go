package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/testbed"
)

func TestMain(m *testing.M) {
	// The population workload's proc backend re-executes the test binary
	// as its worker.
	testbed.MaybeServeWorker()
	os.Exit(m.Run())
}

// benchmarkFile is the part of BENCHMARK.json the tests check against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWorkloadsTiny runs every workload at test size, untraced and
// traced: each must pass its output check, fail nothing, and emit exactly
// the metrics BENCHMARK.json names, with their units.
func TestWorkloadsTiny(t *testing.T) {
	b := loadBenchmarkFile(t)
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range b.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		want[true][m.Name] = m.Unit
	}
	if !reflect.DeepEqual(want[false], endToEndUnits) || !reflect.DeepEqual(want[true], perLayerUnits) {
		t.Fatalf("BENCHMARK.json metrics differ from the ones the benchmark emits:\nfile %v\ncode %v %v", want, endToEndUnits, perLayerUnits)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(names, have) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, have)
	}

	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{Seed: 3, Window: 100 * time.Millisecond, Trace: traced, Setups: 2, Scratch: t.TempDir(), Tiny: true}
			res, detail, err := execute(context.Background(), w, cfg, "")
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d mismatches=%v",
					w.name, traced, res.Correct, res.Attempted, res.Failed, detail["mismatches"])
			}
			got := map[string]string{}
			for name, m := range res.Metrics {
				got[name] = m.Unit
			}
			if !reflect.DeepEqual(got, want[traced]) {
				t.Errorf("%s trace=%v: emitted %v, want %v", w.name, traced, got, want[traced])
			}
			for _, name := range []string{"setup_s", "ops_per_s", "job_p50_ms", "peak_rss_mb"} {
				if m, ok := res.Metrics[name]; ok && m.Value <= 0 {
					t.Errorf("%s: %s = %v, want > 0", w.name, name, m.Value)
				}
			}
		}
	}
}

// TestSelfTimes checks self time on a hand-built span tree: overlapping
// children count once, a child running past its parent is clipped, and a
// grandchild only reduces its own parent.
func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "a.child", Start: 15, End: 20},
		{ID: 6, Parent: 1, Name: "d", Start: 60, End: 60},
	}
	want := map[int64]time.Duration{1: 50, 2: 15, 3: 30, 4: 30, 5: 5, 6: 0}
	if got := SelfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("SelfTimes = %v, want %v", got, want)
	}
}

// TestInputsFollowSeed checks that every generated input depends on the
// seed alone.
func TestInputsFollowSeed(t *testing.T) {
	if !reflect.DeepEqual(gridDoc(5, false), gridDoc(5, false)) || reflect.DeepEqual(gridDoc(5, false), gridDoc(6, false)) {
		t.Error("grid job does not follow the seed")
	}
	if !reflect.DeepEqual(populationDoc(5, false), populationDoc(5, false)) || reflect.DeepEqual(populationDoc(5, false), populationDoc(6, false)) {
		t.Error("population job does not follow the seed")
	}
	a, b, c := newServerMix(5, false), newServerMix(5, false), newServerMix(6, false)
	fresh := 0
	for i := 0; i < 200; i++ {
		if !reflect.DeepEqual(a.doc(i), b.doc(i)) {
			t.Fatalf("server job %d does not follow the seed", i)
		}
		if a.doc(i).Grid.Sizes[0] >= 1000 {
			fresh++
		}
	}
	if reflect.DeepEqual(a.universe(), c.universe()) {
		t.Error("server warm set does not follow the seed")
	}
	if fresh < 5 || fresh > 40 {
		t.Errorf("%d of 200 server jobs add fresh cells, want about one in ten", fresh)
	}
	g, err := gridDoc(5, false).Grid.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 4000 {
		t.Errorf("grid-net-cold grid has %d cells, want 4000", g.Size())
	}
}
