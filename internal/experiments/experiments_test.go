package experiments

import (
	"bytes"
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/pipeline"
	"repro/internal/sweep"
	"repro/internal/testbed"
)

// suite is shared across tests: construction fits four regressions, which
// is the expensive part.
var testSuite *Suite

func getSuite(t *testing.T) *Suite {
	t.Helper()
	if testSuite == nil {
		s, err := NewSuite(42, 8000, 2000)
		if err != nil {
			t.Fatal(err)
		}
		s.Trials = 10
		testSuite = s
	}
	return testSuite
}

func TestNewSuiteRejectsTinyDatasets(t *testing.T) {
	if _, err := NewSuite(1, 10, 10); err == nil {
		t.Fatal("tiny datasets must error")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	s := getSuite(t)
	if _, err := s.Run("fig9z"); !errors.Is(err, ErrUnknownExperiment) {
		t.Fatalf("unknown id error = %v", err)
	}
}

func TestIDsCoverAllRunners(t *testing.T) {
	s := getSuite(t)
	for _, id := range IDs() {
		r, err := s.Run(id)
		if err != nil {
			t.Fatalf("run %s: %v", id, err)
		}
		if r.ID() != id {
			t.Fatalf("result id %q != %q", r.ID(), id)
		}
		if r.Render() == "" {
			t.Fatalf("%s renders empty", id)
		}
	}
}

func TestFig4aAccuracy(t *testing.T) {
	s := getSuite(t)
	res, err := s.Fig4a(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(FrameSizes())*len(CPUFrequencies()) {
		t.Fatalf("grid size = %d", len(res.Points))
	}
	// The paper reports 2.74% mean error; the reproduction target is
	// single-digit error.
	if res.MeanErrPct > 10 {
		t.Fatalf("fig4a mean error = %v%%, want < 10%%", res.MeanErrPct)
	}
	// Shape: latency grows with frame size at fixed frequency.
	byFreq := map[float64][]SweepPoint{}
	for _, p := range res.Points {
		byFreq[p.CPUFreqGHz] = append(byFreq[p.CPUFreqGHz], p)
	}
	for freq, pts := range byFreq {
		for i := 1; i < len(pts); i++ {
			if pts[i].GroundTruth <= pts[i-1].GroundTruth {
				t.Fatalf("GT latency not increasing in size at %v GHz", freq)
			}
			if pts[i].Proposed <= pts[i-1].Proposed {
				t.Fatalf("model latency not increasing in size at %v GHz", freq)
			}
		}
	}
	// Shape: at fixed size, 3 GHz beats 1 GHz.
	for _, size := range FrameSizes() {
		var l1, l3 float64
		for _, p := range res.Points {
			if p.FrameSizePx2 == size && p.CPUFreqGHz == 1 {
				l1 = p.GroundTruth
			}
			if p.FrameSizePx2 == size && p.CPUFreqGHz == 3 {
				l3 = p.GroundTruth
			}
		}
		if l3 >= l1 {
			t.Fatalf("GT at %v px²: 3 GHz (%v) must beat 1 GHz (%v)", size, l3, l1)
		}
	}
}

func TestFig4bAccuracy(t *testing.T) {
	s := getSuite(t)
	res, err := s.Fig4b(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanErrPct > 10 {
		t.Fatalf("fig4b mean error = %v%%, want < 10%%", res.MeanErrPct)
	}
}

func TestFig4cdAccuracy(t *testing.T) {
	s := getSuite(t)
	c, err := s.Fig4c(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if c.MeanErrPct > 12 {
		t.Fatalf("fig4c mean error = %v%%, want < 12%%", c.MeanErrPct)
	}
	d, err := s.Fig4d(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if d.MeanErrPct > 12 {
		t.Fatalf("fig4d mean error = %v%%, want < 12%%", d.MeanErrPct)
	}
	for _, p := range append(c.Points, d.Points...) {
		if p.GroundTruth <= 0 || p.Proposed <= 0 {
			t.Fatalf("non-positive energy point: %+v", p)
		}
	}
}

func TestFig4eOrdering(t *testing.T) {
	s := getSuite(t)
	res, err := s.Fig4e(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("series = %d, want 3", len(res.Series))
	}
	// Final AoI must order 67 Hz > 100 Hz > 200 Hz in both GT and model.
	m200 := res.Series[0].Model[len(res.Series[0].Model)-1].AoIMs
	m100 := res.Series[1].Model[len(res.Series[1].Model)-1].AoIMs
	m67 := res.Series[2].Model[len(res.Series[2].Model)-1].AoIMs
	if !(m67 > m100 && m100 > m200) {
		t.Fatalf("model AoI ordering wrong: 67=%v 100=%v 200=%v", m67, m100, m200)
	}
	g200 := res.Series[0].GroundTruth[len(res.Series[0].GroundTruth)-1].AoIMs
	g100 := res.Series[1].GroundTruth[len(res.Series[1].GroundTruth)-1].AoIMs
	g67 := res.Series[2].GroundTruth[len(res.Series[2].GroundTruth)-1].AoIMs
	if !(g67 > g100 && g100 > g200) {
		t.Fatalf("GT AoI ordering wrong: 67=%v 100=%v 200=%v", g67, g100, g200)
	}
	for _, srs := range res.Series {
		if srs.MeanErrMs > 3 {
			t.Fatalf("series %s model-vs-GT gap = %v ms", srs.Label, srs.MeanErrMs)
		}
	}
}

func TestFig4fAnchors(t *testing.T) {
	s := getSuite(t)
	res, err := s.Fig4f(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) < 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Paper anchors: AoI 10/15/20 ms with RoI 0.5/0.33/0.25 at the first
	// three updates (small buffer epsilon tolerated).
	wantAoI := []float64{10, 15, 20}
	wantRoI := []float64{0.5, 1.0 / 3.0, 0.25}
	for i := 0; i < 3; i++ {
		if diff := res.Points[i].AoIMs - wantAoI[i]; diff < -0.2 || diff > 0.2 {
			t.Fatalf("AoI[%d] = %v, want ≈%v", i, res.Points[i].AoIMs, wantAoI[i])
		}
		if diff := res.Points[i].RoI - wantRoI[i]; diff < -0.02 || diff > 0.02 {
			t.Fatalf("RoI[%d] = %v, want ≈%v", i, res.Points[i].RoI, wantRoI[i])
		}
	}
}

func TestFig5Ordering(t *testing.T) {
	s := getSuite(t)
	for _, run := range []func(context.Context) (*Fig5Result, error){s.Fig5a, s.Fig5b} {
		res, err := run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Points) != len(FrameSizes()) {
			t.Fatalf("%s points = %d", res.ID(), len(res.Points))
		}
		// The paper's headline: proposed > LEAF > FACT.
		if !(res.MeanProposed > res.MeanLEAF && res.MeanLEAF > res.MeanFACT) {
			t.Fatalf("%s ordering wrong: proposed=%v LEAF=%v FACT=%v",
				res.ID(), res.MeanProposed, res.MeanLEAF, res.MeanFACT)
		}
		if res.MeanProposed < 85 {
			t.Fatalf("%s proposed accuracy = %v%%, want ≥ 85%%", res.ID(), res.MeanProposed)
		}
		if res.GapFACT <= 0 || res.GapLEAF <= 0 {
			t.Fatalf("%s gaps must be positive: %v %v", res.ID(), res.GapFACT, res.GapLEAF)
		}
	}
}

// TestFig5IndependentOfPriorMeasurements is the regression test for the
// latent order-dependence bug: the Fig. 5 calibration campaign used to
// draw from the bench's shared serial RNG, so its observations — and the
// calibrated FACT/LEAF constants — changed if any measurement ran before
// it. With seeded measurements, Fig5a after a full Fig4a run must match
// Fig5a on a fresh suite byte for byte.
func TestFig5IndependentOfPriorMeasurements(t *testing.T) {
	build := func() *Suite {
		t.Helper()
		s, err := NewSuite(7, 4000, 1000)
		if err != nil {
			t.Fatal(err)
		}
		s.Trials = 5
		return s
	}

	fresh := build()
	want, err := fresh.Fig5a(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	used := build()
	if _, err := used.Fig4a(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, err := used.Fig5a(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got.Render() != want.Render() {
		t.Fatalf("Fig5a depends on prior measurements:\n--- fresh suite\n%s\n--- after Fig4a\n%s",
			want.Render(), got.Render())
	}
}

// TestRunContextCanceled pins the cancelation contract: a canceled
// context must abort an experiment's in-flight sweeps instead of letting
// the full measurement grid run to completion.
func TestRunContextCanceled(t *testing.T) {
	s := getSuite(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, id := range []string{"fig4a", "fig5a", "ablation"} {
		if _, err := s.RunContext(ctx, id); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s with canceled ctx: err = %v, want context.Canceled", id, err)
		}
	}
}

// TestStreamAllOrderAndEquivalence checks that StreamAll emits every
// experiment in paper order and produces the same results as RunAll.
func TestStreamAllOrderAndEquivalence(t *testing.T) {
	s := getSuite(t)
	all, err := s.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	var streamed []Result
	if err := s.StreamAll(context.Background(), func(r Result) error {
		streamed = append(streamed, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(IDs()) {
		t.Fatalf("streamed %d results, want %d", len(streamed), len(IDs()))
	}
	for i, id := range IDs() {
		if streamed[i].ID() != id {
			t.Fatalf("streamed[%d] = %s, want %s", i, streamed[i].ID(), id)
		}
		if streamed[i].Render() != all[i].Render() {
			t.Fatalf("%s: StreamAll diverges from RunAll", id)
		}
	}
}

// TestStreamGridMatchesRunGrid pins the streaming grid API: emitted
// points arrive in canonical order and match the buffered result
// exactly.
func TestStreamGridMatchesRunGrid(t *testing.T) {
	s := getSuite(t)
	grid := sweep.Grid{
		Devices:    deviceList(t, "XR1", "XR6"),
		FrameSizes: []float64{300, 700},
		CPUFreqs:   []float64{1, 2},
	}
	want, err := s.RunGrid(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []GridPoint
	got, err := s.StreamGrid(context.Background(), grid, func(p GridPoint) error {
		streamed = append(streamed, p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(want.Points) {
		t.Fatalf("streamed %d points, want %d", len(streamed), len(want.Points))
	}
	for i := range streamed {
		if streamed[i] != want.Points[i] {
			t.Fatalf("streamed[%d] diverges from RunGrid", i)
		}
	}
	if got.Render() != want.Render() {
		t.Fatal("StreamGrid result diverges from RunGrid")
	}
	// The incremental render pieces reassemble the exact buffered table.
	var b strings.Builder
	b.WriteString(want.RenderHeader())
	for _, p := range want.Points {
		b.WriteString(p.RenderRow())
	}
	b.WriteString(want.RenderFooter())
	if b.String() != want.Render() {
		t.Fatal("header/row/footer pieces diverge from Render")
	}
}

func deviceList(t *testing.T, names ...string) []device.Device {
	t.Helper()
	out := make([]device.Device, len(names))
	for i, n := range names {
		d, err := device.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = d
	}
	return out
}

// TestCacheSharesCellsAcrossExperiments pins the memoizing cache at the
// experiments layer: the ablation evaluates exactly the Fig. 4(a) local
// grid, so running it after Fig. 4(a) must measure nothing new.
func TestCacheSharesCellsAcrossExperiments(t *testing.T) {
	s, err := NewSuite(7, 4000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	s.Trials = 5
	if _, err := s.Fig4a(context.Background()); err != nil {
		t.Fatal(err)
	}
	st, ok := s.CacheStats()
	if !ok {
		t.Fatal("default suite must expose cache stats")
	}
	if st.Misses != 15 || st.Hits != 0 {
		t.Fatalf("after fig4a: %+v, want 15 misses / 0 hits", st)
	}
	if _, err := s.Ablation(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st, _ = s.CacheStats(); st.Misses != 15 || st.Hits != 15 {
		t.Fatalf("after ablation: %+v, want 15 misses / 15 hits", st)
	}
}

func TestTableRenders(t *testing.T) {
	s := getSuite(t)
	t1, err := s.Table1(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(t1.Devices) != 8 {
		t.Fatalf("table1 devices = %d", len(t1.Devices))
	}
	for _, want := range []string{"XR1", "Meta Quest 2", "Jetson AGX"} {
		if !strings.Contains(t1.Render(), want) {
			t.Fatalf("table1 missing %q", want)
		}
	}
	t2, err := s.Table2(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(t2.Models) != 11 || len(t2.Complexity) != 11 {
		t.Fatalf("table2 sizes = %d/%d", len(t2.Models), len(t2.Complexity))
	}
	if !strings.Contains(t2.Render(), "YOLOv3") {
		t.Fatal("table2 missing YOLOv3")
	}
}

func TestFitSummaryAgainstPaper(t *testing.T) {
	s := getSuite(t)
	res, err := s.FitSummary(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	out := res.Render()
	for _, want := range []string{"Eq. 3", "Eq. 10", "Eq. 12", "Eq. 21"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fit summary missing %q:\n%s", want, out)
		}
	}
}

func TestRunAll(t *testing.T) {
	s := getSuite(t)
	results, err := s.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(IDs()) {
		t.Fatalf("results = %d, want %d", len(results), len(IDs()))
	}
}

func TestWriteReport(t *testing.T) {
	s := getSuite(t)
	var buf bytes.Buffer
	if err := s.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# XR performance-analysis reproduction report",
		"## Table I", "## Regression fits", "## Fig. 4(a)",
		"## Fig. 5(b)", "## Ablation", "## Verdict",
		"| Latency accuracy ordering |",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q", want)
		}
	}
	// Both headline orderings must hold in the generated verdict.
	if strings.Contains(out, "| NO |") {
		t.Fatalf("verdict failed:\n%s", out[strings.Index(out, "## Verdict"):])
	}
}

// TestRequestsMatchSerial pins the parallel seed derivation to the
// serial one: the same requests in the same order at any GOMAXPROCS,
// and the error of the lowest failing cell.
func TestRequestsMatchSerial(t *testing.T) {
	s := &Suite{Bench: testbed.NewBench(3), Trials: 5, Seed: 11}
	dev, err := device.ByName(SweepDevice)
	if err != nil {
		t.Fatal(err)
	}
	scs := make([]*pipeline.Scenario, 300)
	for i := range scs {
		if scs[i], err = pipeline.NewScenario(dev, pipeline.WithFrameSize(300+float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	want := make([]testbed.Request, len(scs))
	for i, sc := range scs {
		if want[i], err = s.request(sc); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		got, err := s.requests(scs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i].Seed != want[i].Seed || got[i].Scenario != want[i].Scenario {
				t.Fatalf("GOMAXPROCS %d: request %d differs from the serial derivation", procs, i)
			}
		}
	}
	bad := append([]*pipeline.Scenario(nil), scs...)
	for i, v := range map[int]float64{150: math.NaN(), 290: math.Inf(1)} {
		sc := *scs[i]
		sc.ResultSizeMB = v
		bad[i] = &sc
	}
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		if _, err := s.requests(bad); err == nil || !strings.Contains(err.Error(), "NaN") {
			t.Fatalf("GOMAXPROCS %d: error %v, want the lowest failing cell's (NaN)", procs, err)
		}
	}
}
