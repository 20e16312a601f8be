// Package repro's root benchmarks regenerate every table and figure of the
// paper's evaluation (Section VIII). Each benchmark drives the
// corresponding experiment runner and reports the figure's headline
// metric — mean model error for the Fig. 4 panels, normalized-accuracy
// gaps for the Fig. 5 comparison — via b.ReportMetric, so
// `go test -bench=. -benchmem` reproduces the paper's result set in one
// command.
package repro

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/pipeline"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/sweep/sweeptest"
	"repro/internal/testbed"
)

var (
	suiteOnce sync.Once
	suite     *experiments.Suite
	suiteErr  error
)

// benchSuite shares one fitted suite across benchmarks: dataset generation
// and regression fitting is the expensive setup, not the per-figure
// evaluation. The suite is pinned to an uncached in-process backend so
// every iteration measures real work — the default memoizing cache would
// make iterations 2..N free and turn the timings into cache-lookup
// benchmarks (BenchmarkSweepCached measures that case explicitly).
func benchSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		suite, suiteErr = experiments.NewSuite(42, 12000, 3000)
		if suite != nil {
			suite.Trials = 15
			suite.Runner = &sweep.PoolRunner{}
		}
	})
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return suite
}

func BenchmarkTable1Devices(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		res, err := s.Table1(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Devices) != 8 {
			b.Fatal("catalog incomplete")
		}
	}
}

func BenchmarkTable2CNNs(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		res, err := s.Table2(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Models) != 11 {
			b.Fatal("catalog incomplete")
		}
	}
}

func BenchmarkRegressionFits(b *testing.B) {
	s := benchSuite(b)
	var last *experiments.FitSummaryResult
	for i := 0; i < b.N; i++ {
		res, err := s.FitSummary(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil {
		b.ReportMetric(last.Report.Resource.TrainR2, "resourceR2")
		b.ReportMetric(last.Report.Power.TrainR2, "powerR2")
		b.ReportMetric(last.Report.Encoder.TrainR2, "encoderR2")
		b.ReportMetric(last.Report.Complexity.TrainR2, "cnnR2")
	}
}

// benchSweep shares the Fig. 4(a)-(d) benchmark shape.
func benchSweep(b *testing.B, run func(context.Context) (*experiments.SweepResult, error)) {
	benchSuite(b)
	var last *experiments.SweepResult
	for i := 0; i < b.N; i++ {
		res, err := run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil {
		b.ReportMetric(last.MeanErrPct, "meanErr%")
		b.ReportMetric(last.PaperMeanErrPct, "paperErr%")
	}
}

func BenchmarkFig4aLatencyLocal(b *testing.B) {
	s := benchSuite(b)
	benchSweep(b, s.Fig4a)
}

func BenchmarkFig4bLatencyRemote(b *testing.B) {
	s := benchSuite(b)
	benchSweep(b, s.Fig4b)
}

func BenchmarkFig4cEnergyLocal(b *testing.B) {
	s := benchSuite(b)
	benchSweep(b, s.Fig4c)
}

func BenchmarkFig4dEnergyRemote(b *testing.B) {
	s := benchSuite(b)
	benchSweep(b, s.Fig4d)
}

func BenchmarkFig4eAoI(b *testing.B) {
	s := benchSuite(b)
	var last *experiments.Fig4eResult
	for i := 0; i < b.N; i++ {
		res, err := s.Fig4e(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil {
		var worst float64
		for _, srs := range last.Series {
			if srs.MeanErrMs > worst {
				worst = srs.MeanErrMs
			}
		}
		b.ReportMetric(worst, "worstGap(ms)")
	}
}

func BenchmarkFig4fRoI(b *testing.B) {
	s := benchSuite(b)
	var last *experiments.Fig4fResult
	for i := 0; i < b.N; i++ {
		res, err := s.Fig4f(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil && len(last.Points) > 0 {
		b.ReportMetric(last.Points[0].RoI, "firstRoI")
	}
}

// benchFig5 shares the Fig. 5 benchmark shape.
func benchFig5(b *testing.B, run func(context.Context) (*experiments.Fig5Result, error)) {
	benchSuite(b)
	var last *experiments.Fig5Result
	for i := 0; i < b.N; i++ {
		res, err := run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil {
		b.ReportMetric(last.MeanProposed, "proposed%")
		b.ReportMetric(last.MeanFACT, "fact%")
		b.ReportMetric(last.MeanLEAF, "leaf%")
		b.ReportMetric(last.GapFACT, "gapFACTpp")
		b.ReportMetric(last.GapLEAF, "gapLEAFpp")
	}
}

func BenchmarkFig5aAccuracyLatency(b *testing.B) {
	s := benchSuite(b)
	benchFig5(b, s.Fig5a)
}

func BenchmarkFig5bAccuracyEnergy(b *testing.B) {
	s := benchSuite(b)
	benchFig5(b, s.Fig5b)
}

// sweepBenchGrid is the 64-point device × mode × resolution × clock grid
// shared by the serial-vs-parallel engine benchmarks.
func sweepBenchGrid(b *testing.B) sweep.Grid {
	b.Helper()
	names := []string{"XR1", "XR2", "XR6", "XR7"}
	devs := make([]device.Device, len(names))
	for i, n := range names {
		d, err := device.ByName(n)
		if err != nil {
			b.Fatal(err)
		}
		devs[i] = d
	}
	g := sweep.Grid{
		Devices:    devs,
		Modes:      []pipeline.InferenceMode{pipeline.ModeLocal, pipeline.ModeRemote},
		FrameSizes: []float64{300, 400, 500, 600},
		CPUFreqs:   []float64{1, 0}, // 0 = device max
	}
	if g.Size() != 64 {
		b.Fatalf("bench grid size = %d, want 64", g.Size())
	}
	return g
}

// benchSweepGrid runs the 64-point grid on the given backend; the
// serial/parallel/proc set pins each backend's cost on identical work
// (results are byte-identical across all of them, only wall-clock
// differs).
func benchSweepGrid(b *testing.B, runner sweep.Runner) {
	s := benchSuite(b)
	grid := sweepBenchGrid(b)
	prev := s.Runner
	s.Runner = runner
	defer func() { s.Runner = prev }()
	b.ResetTimer()
	var last *experiments.GridResult
	for i := 0; i < b.N; i++ {
		res, err := s.RunGrid(context.Background(), grid)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil {
		b.ReportMetric(float64(len(last.Points)), "points")
		b.ReportMetric(last.MeanLatencyErrPct, "latErr%")
		b.ReportMetric(last.MeanEnergyErrPct, "energyErr%")
	}
}

// BenchmarkSweepSerial runs the grid on a single worker — the baseline
// the pre-engine inline loops were equivalent to.
func BenchmarkSweepSerial(b *testing.B) { benchSweepGrid(b, &sweep.PoolRunner{Workers: 1}) }

// BenchmarkSweepParallel runs the same grid across GOMAXPROCS workers;
// with ≥4 cores this completes the grid ≥2× faster than the serial run.
func BenchmarkSweepParallel(b *testing.B) { benchSweepGrid(b, &sweep.PoolRunner{}) }

// warmSweepRunner runs the grid once before the timer starts so the
// session-pool backends measure steady-state dispatch cost. Worker
// spawn (proc) and dial+handshake (net) are one-time costs that a real
// multi-sweep run amortizes across sweeps; at -benchtime=1x they would
// otherwise dominate the single timed iteration and hide the per-frame
// wire cost these benchmarks exist to pin.
func warmSweepRunner(b *testing.B, runner sweep.Runner) {
	b.Helper()
	s := benchSuite(b)
	prev := s.Runner
	s.Runner = runner
	defer func() { s.Runner = prev }()
	if _, err := s.RunGrid(context.Background(), sweepBenchGrid(b)); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSweepProc runs the same grid across GOMAXPROCS worker
// subprocesses, pinning the proc backend's dispatch and serialization
// overhead against the in-process pool on identical work. The worker
// pool is warmed before timing starts, so the number tracks per-sweep
// wire cost rather than the one-time spawn.
func BenchmarkSweepProc(b *testing.B) {
	pr := &sweep.ProcRunner{}
	defer pr.Close()
	warmSweepRunner(b, pr)
	benchSweepGrid(b, pr)
}

// BenchmarkSweepCached runs the grid through the memoizing measurement
// cache: iteration 1 measures the 64 cells, iterations 2..N are pure
// cache replays — the repeated-cell cost the default backend eliminates
// across Fig. 4/Fig. 5/ablation.
func BenchmarkSweepCached(b *testing.B) {
	benchSweepGrid(b, sweep.NewCachedRunner(&sweep.PoolRunner{}))
}

// benchServeNode starts one loopback serve node torn down with the
// benchmark, returning its dialable address.
func benchServeNode(b *testing.B) string {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = testbed.ServeListener(ctx, ln, nil)
	}()
	b.Cleanup(func() {
		cancel()
		<-done
	})
	return ln.Addr().String()
}

// BenchmarkSweepNet runs the same grid through a loopback serve node,
// pinning the network backend's dispatch, framing, and TCP round-trip
// overhead against the pool and proc backends on identical work. The
// connections are warmed before timing starts, so the number tracks
// per-sweep wire cost rather than the one-time dial+handshake.
func BenchmarkSweepNet(b *testing.B) {
	nr := &sweep.NetRunner{Nodes: []string{benchServeNode(b)}}
	defer nr.Close()
	warmSweepRunner(b, nr)
	benchSweepGrid(b, nr)
}

// BenchmarkSweepNetSkewed runs the grid on a three-node fleet where one
// node answers through a frame-delaying proxy roughly 10× slower than
// its peers — the elastic-fleet headline case. Idle lanes steal the slow
// node's unanswered batches, so the sweep finishes near the fast nodes'
// pace. The steal count is reported as a metric so the perf trail shows
// the mechanism actually fired rather than the fleet just dodging the
// slow node.
func BenchmarkSweepNetSkewed(b *testing.B) {
	slow, err := sweeptest.NewChaosProxy(benchServeNode(b), sweeptest.ChaosConfig{FrameDelay: 25 * time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	defer slow.Close()
	nr := &sweep.NetRunner{
		Nodes:      []string{slow.Addr(), benchServeNode(b), benchServeNode(b)},
		Batch:      2,
		StealAfter: time.Millisecond,
	}
	defer nr.Close()
	benchSweepGrid(b, nr)
	b.ReportMetric(float64(nr.Steals()), "steals")
}

// BenchmarkAblationPaperVsFitted quantifies the DESIGN.md "re-fit, don't
// replay" decision: the paper's published coefficients (trained on the
// authors' physical testbed) against coefficients re-fitted on this
// repository's synthetic testbed, both evaluated against the synthetic
// ground truth on the Fig. 4(a) sweep.
func BenchmarkAblationPaperVsFitted(b *testing.B) {
	s := benchSuite(b)
	var last *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		res, err := s.Ablation(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil {
		b.ReportMetric(last.PaperErrPct, "paperCoefErr%")
		b.ReportMetric(last.FittedErrPct, "refittedErr%")
	}
}

// BenchmarkAblationMultiEdgeSplit quantifies the Eq. (15) design choice:
// remote-inference latency for one edge server versus an even two-way
// split on identical hardware.
func BenchmarkAblationMultiEdgeSplit(b *testing.B) {
	s := benchSuite(b)
	dev, err := device.ByName(experiments.SweepDevice)
	if err != nil {
		b.Fatal(err)
	}
	base, err := pipeline.NewScenario(dev, pipeline.WithMode(pipeline.ModeRemote))
	if err != nil {
		b.Fatal(err)
	}
	edge := base.Edges[0]

	var single, split float64
	for i := 0; i < b.N; i++ {
		one, err := pipeline.NewScenario(dev, pipeline.WithMode(pipeline.ModeRemote))
		if err != nil {
			b.Fatal(err)
		}
		lb1, err := s.Latency.FrameLatency(one)
		if err != nil {
			b.Fatal(err)
		}
		two, err := pipeline.NewScenario(dev,
			pipeline.WithMode(pipeline.ModeRemote),
			pipeline.WithEdges(
				pipeline.EdgeAssignment{Share: 0.5, Resource: edge.Resource, MemBandwidthGBs: edge.MemBandwidthGBs},
				pipeline.EdgeAssignment{Share: 0.5, Resource: edge.Resource, MemBandwidthGBs: edge.MemBandwidthGBs},
			),
		)
		if err != nil {
			b.Fatal(err)
		}
		lb2, err := s.Latency.FrameLatency(two)
		if err != nil {
			b.Fatal(err)
		}
		single, split = lb1.RemoteInf, lb2.RemoteInf
	}
	b.ReportMetric(single, "singleEdge(ms)")
	b.ReportMetric(split, "twoWaySplit(ms)")
}

// BenchmarkPopulationSweep measures the population-simulation path end to
// end: a named scenario expanded into cohorts, sharded into session
// requests, executed on the parallel pool, and folded into quantile
// sketches. users/sec is the capacity-planning number — it is what
// determines how long `xrperf population -users 1000000` takes.
func BenchmarkPopulationSweep(b *testing.B) {
	const users, frames = 2000, 30
	cohorts, err := scenario.Generate("offload", scenario.Params{Users: users, Frames: frames, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	r := &sweep.PoolRunner{}
	b.ResetTimer()
	var last *sweep.PopulationResult
	for i := 0; i < b.N; i++ {
		res, err := sweep.RunPopulation(context.Background(), r, cohorts,
			sweep.PopulationOptions{ShardUsers: 250})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	if last != nil {
		b.ReportMetric(float64(users)*float64(b.N)/b.Elapsed().Seconds(), "users/s")
		b.ReportMetric(float64(users*frames)*float64(b.N)/b.Elapsed().Seconds(), "frames/s")
	}
}
