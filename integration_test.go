// Cross-module integration tests: the full stack — synthetic testbed →
// regression fitting → analytical framework → session simulation → trace
// export — exercised end to end, plus consistency checks between the
// analytical models and their discrete-event validators.
package repro

import (
	"bytes"
	"context"
	"io/fs"
	"math"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/aoi"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/job"
	"repro/internal/pipeline"
	"repro/internal/queue"
	"repro/internal/scenario"
	"repro/internal/sensors"
	"repro/internal/session"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/testbed"
	"repro/internal/wireless"
)

// TestMain lets the proc sweep backend re-execute this test binary as a
// measurement worker: with the worker marker set, the process serves the
// wire protocol instead of running the tests.
func TestMain(m *testing.M) {
	testbed.MaybeServeWorker()
	os.Exit(m.Run())
}

// startServeNodes runs n loopback worker-fleet nodes (the in-process
// equivalent of `xrperf serve`) for the test's lifetime and returns
// their addresses.
func startServeNodes(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = testbed.ServeListener(ctx, ln, nil)
		}()
		t.Cleanup(func() {
			cancel()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Error("serve node did not shut down")
			}
		})
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

// TestFullStackFitAnalyzeSession drives the complete workflow a
// downstream user would run: fit models on the synthetic testbed, analyze
// a realistic scenario, run a session with thermal/battery loops, and
// round-trip the trace through CSV.
func TestFullStackFitAnalyzeSession(t *testing.T) {
	fw, report, err := core.NewFitted(11, 6000, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if report.Resource.TrainR2 < 0.7 || report.Encoder.TrainR2 < 0.7 {
		t.Fatalf("weak fits: %+v", report)
	}

	dev, err := device.ByName("XR2") // held-out device
	if err != nil {
		t.Fatal(err)
	}
	s1, err := sensors.NewSensor("imu-hub", 200, 5)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := pipeline.NewScenario(dev,
		pipeline.WithMode(pipeline.ModeRemote),
		pipeline.WithFrameSize(600),
		pipeline.WithSensors(sensors.NewArray(s1), 2),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fw.Analyze(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Latency.Total <= 0 || rep.Energy.Total <= 0 || len(rep.Sensors) != 1 {
		t.Fatalf("report incomplete: %+v", rep)
	}

	battery, err := session.NewBattery(3640, 3.85) // Quest 2-class pack
	if err != nil {
		t.Fatal(err)
	}
	thermal := session.DefaultThermal()
	res, err := session.Run(context.Background(), session.Config{
		Models:   fw.Energy,
		Scenario: sc,
		Frames:   120,
		Thermal:  &thermal,
		Battery:  &battery,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedFrames != 120 {
		t.Fatalf("frames = %d", res.CompletedFrames)
	}

	tbl, err := res.TraceTable()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := dataset.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 120 {
		t.Fatalf("csv round-trip rows = %d", back.Len())
	}
}

// TestSweepEngineDeterministicAcrossWorkerCounts pins the sweep engine's
// end-to-end determinism contract on the real evaluation stack: the
// Fig. 4 panels, the ablation, and an arbitrary user grid must render
// byte-identical output whether they run on one worker or many.
func TestSweepEngineDeterministicAcrossWorkerCounts(t *testing.T) {
	build := func(workers int) *experiments.Suite {
		t.Helper()
		s, err := experiments.NewSuite(42, 4000, 1000)
		if err != nil {
			t.Fatal(err)
		}
		s.Trials = 5
		s.Workers = workers
		return s
	}
	serial := build(1)
	parallel := build(8)

	for _, id := range []string{"fig4a", "fig4d", "fig4e", "fig5a", "fig5b", "table2", "ablation"} {
		rs, err := serial.Run(id)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := parallel.Run(id)
		if err != nil {
			t.Fatal(err)
		}
		if rs.Render() != rp.Render() {
			t.Fatalf("%s differs between 1 and 8 workers:\n--- serial\n%s\n--- parallel\n%s",
				id, rs.Render(), rp.Render())
		}
	}

	dev, err := device.ByName("XR1")
	if err != nil {
		t.Fatal(err)
	}
	grid := sweep.Grid{
		Devices:    []device.Device{dev},
		Modes:      []pipeline.InferenceMode{pipeline.ModeLocal, pipeline.ModeRemote},
		FrameSizes: []float64{300, 500, 700},
		CPUFreqs:   []float64{1, 3},
	}
	gs, err := serial.RunGrid(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	gp, err := parallel.RunGrid(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	if gs.Render() != gp.Render() {
		t.Fatalf("grid sweep differs between worker counts:\n--- serial\n%s\n--- parallel\n%s",
			gs.Render(), gp.Render())
	}
}

// TestFullReportDeterministicAcrossWorkerCounts pins the tentpole
// acceptance criterion end to end: the complete report — every table,
// figure, and the verdict, with experiments themselves fanned out
// concurrently — must be byte-identical at 1 and 8 workers, in both the
// buffered and streaming modes.
func TestFullReportDeterministicAcrossWorkerCounts(t *testing.T) {
	report := func(workers int, stream bool) string {
		t.Helper()
		s, err := experiments.NewSuite(42, 4000, 1000)
		if err != nil {
			t.Fatal(err)
		}
		s.Trials = 5
		s.Workers = workers
		var buf bytes.Buffer
		if stream {
			err = s.StreamReport(context.Background(), &buf)
		} else {
			err = s.WriteReport(&buf)
		}
		if err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	serial := report(1, false)
	parallel := report(8, false)
	if serial != parallel {
		t.Fatalf("report differs between 1 and 8 workers:\n--- serial\n%s\n--- parallel\n%s",
			serial, parallel)
	}
	if streamed := report(8, true); streamed != serial {
		t.Fatalf("streamed report diverges from buffered report:\n--- buffered\n%s\n--- streamed\n%s",
			serial, streamed)
	}
}

// TestAnalyzeBatchMatchesAnalyze checks the core façade's batch API
// against the sequential one on a mixed scenario list, across every
// backend: the in-process default (nil runner), an explicit pool runner,
// and worker subprocesses — each must reproduce sequential Analyze
// exactly.
func TestAnalyzeBatchMatchesAnalyze(t *testing.T) {
	fw := core.NewWithPaperCoefficients()
	var scs []*pipeline.Scenario
	for _, name := range []string{"XR1", "XR4", "XR6"} {
		dev, err := device.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []pipeline.InferenceMode{pipeline.ModeLocal, pipeline.ModeRemote} {
			sc, err := pipeline.NewScenario(dev, pipeline.WithMode(mode))
			if err != nil {
				t.Fatal(err)
			}
			scs = append(scs, sc)
		}
	}
	proc := &sweep.ProcRunner{Procs: 2}
	defer proc.Close()
	netr := &sweep.NetRunner{Nodes: startServeNodes(t, 2)}
	defer netr.Close()
	backends := []struct {
		name   string
		runner sweep.Runner
	}{
		{"nil (in-process)", nil},
		{"pool", &sweep.PoolRunner{Workers: 4}},
		{"proc", proc},
		{"net", netr},
	}
	for _, b := range backends {
		batch, err := fw.AnalyzeBatch(context.Background(), scs, b.runner)
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		if len(batch) != len(scs) {
			t.Fatalf("%s: batch reports = %d, want %d", b.name, len(batch), len(scs))
		}
		for i, sc := range scs {
			want, err := fw.Analyze(sc)
			if err != nil {
				t.Fatal(err)
			}
			if batch[i].Latency.Total != want.Latency.Total ||
				batch[i].Energy.Total != want.Energy.Total {
				t.Fatalf("%s: batch[%d] diverges from sequential Analyze", b.name, i)
			}
		}
	}

	// A hand-assembled framework has no wire provenance: batch analysis
	// must work in-process and reject dispatching backends.
	hand := &core.Framework{Latency: fw.Latency, Energy: fw.Energy}
	if _, err := hand.AnalyzeBatch(context.Background(), scs, nil); err != nil {
		t.Fatalf("hand-assembled in-process batch: %v", err)
	}
	if _, err := hand.AnalyzeBatch(context.Background(), scs, &sweep.PoolRunner{}); err == nil {
		t.Fatal("hand-assembled framework must reject a dispatching backend")
	}
}

// TestReportByteIdenticalAcrossBackends pins the backend-equivalence
// matrix end to end: the full report must be byte-identical across the
// pool, proc, and net backends at any parallelism and node count, and
// the measurement cache must collapse every repeated grid cell into a
// single backend measurement on each of them.
func TestReportByteIdenticalAcrossBackends(t *testing.T) {
	report := func(runner sweep.Runner, workers int) (string, *experiments.Suite) {
		t.Helper()
		s, err := experiments.NewSuite(42, 4000, 1000)
		if err != nil {
			t.Fatal(err)
		}
		s.Trials = 5
		s.Workers = workers
		s.Runner = runner
		var buf bytes.Buffer
		if err := s.WriteReport(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String(), s
	}

	want, poolSuite := report(nil, 1)

	// The cache sees each repeated cell exactly once: the Fig. 4 panels,
	// the Fig. 5 evaluation grids, and the ablation share 30 scenario
	// cells (15 local + 15 remote); the two Fig. 5 calibration campaigns
	// share 9 more, of which the three 2 GHz cells coincide with the
	// evaluation grid — 36 unique cells for 123 measurement requests.
	st, ok := poolSuite.CacheStats()
	if !ok {
		t.Fatal("default suite must run on the cached backend")
	}
	if st.Misses != 36 || st.Hits != 123-36 {
		t.Fatalf("cache counters: measured %d cells with %d hits, want 36 measured / 87 hits", st.Misses, st.Hits)
	}

	if got, _ := report(nil, 8); got != want {
		t.Fatal("pool report differs between 1 and 8 workers")
	}
	for _, procs := range []int{1, 4} {
		pr := &sweep.ProcRunner{Procs: procs}
		got, procSuite := report(sweep.NewCachedRunner(pr), 8)
		_ = pr.Close()
		if got != want {
			t.Fatalf("proc report (procs=%d) differs from pool report", procs)
		}
		if pst, ok := procSuite.CacheStats(); !ok || pst.Misses != 36 {
			t.Fatalf("proc cache measured %d cells, want 36", pst.Misses)
		}
	}

	// The same report through a fleet of loopback serve nodes — single
	// node and multi-node, so both the degenerate and the sharded
	// dispatch paths are pinned.
	for _, nodes := range []int{1, 3} {
		nr := &sweep.NetRunner{Nodes: startServeNodes(t, nodes)}
		got, netSuite := report(sweep.NewCachedRunner(nr), 8)
		_ = nr.Close()
		if got != want {
			t.Fatalf("net report (%d nodes) differs from pool report", nodes)
		}
		if nst, ok := netSuite.CacheStats(); !ok || nst.Misses != 36 {
			t.Fatalf("net cache measured %d cells, want 36", nst.Misses)
		}
	}
}

// TestReportByteIdenticalNetWithNodeDeath pins the recovery half of the
// tentpole: a fleet whose node dies mid-run still produces the
// byte-identical report — shards are re-dispatched to surviving nodes,
// and re-dispatch cannot change a byte because measurements are pure
// functions of their requests.
func TestReportByteIdenticalNetWithNodeDeath(t *testing.T) {
	newSuite := func(runner sweep.Runner) *experiments.Suite {
		t.Helper()
		s, err := experiments.NewSuite(42, 4000, 1000)
		if err != nil {
			t.Fatal(err)
		}
		s.Trials = 5
		s.Workers = 8
		s.Runner = runner
		return s
	}
	var want bytes.Buffer
	if err := newSuite(nil).WriteReport(&want); err != nil {
		t.Fatal(err)
	}

	// One healthy node plus one that accepts the handshake, swallows its
	// first request, and drops the connection — a node dying mid-frame.
	healthy := startServeNodes(t, 1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var dropped atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				if err := testbed.WriteFrame(conn, testbed.Hello()); err != nil {
					return
				}
				var b testbed.WireBatch
				if err := testbed.ReadBinaryFrame(conn, &b); err == nil {
					dropped.Add(1)
				}
			}(conn)
		}
	}()

	nr := &sweep.NetRunner{Nodes: []string{ln.Addr().String(), healthy[0]}, ConnsPerNode: 2}
	defer nr.Close()
	var got bytes.Buffer
	if err := newSuite(sweep.NewCachedRunner(nr)).WriteReport(&got); err != nil {
		t.Fatalf("report with a dying node: %v", err)
	}
	if got.String() != want.String() {
		t.Fatal("report with a dying node diverges from the pool report")
	}
	if dropped.Load() == 0 {
		t.Fatal("dying node never saw a request; the test proved nothing")
	}
}

// TestNetBackendHandshakeMismatchSurfaces pins the version gate at the
// suite level: a fleet of nodes built from a different physics version
// must fail the run with a clear version-mismatch error, not return
// different numbers.
func TestNetBackendHandshakeMismatchSurfaces(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			_ = testbed.WriteFrame(conn, testbed.WireHello{
				Protocol: testbed.ProtocolVersion,
				Physics:  testbed.PhysicsVersion + 1,
			})
			conn.Close()
		}
	}()

	s, err := experiments.NewSuite(42, 2000, 500)
	if err != nil {
		t.Fatal(err)
	}
	s.Trials = 5
	nr := &sweep.NetRunner{Nodes: []string{ln.Addr().String()}}
	defer nr.Close()
	s.Runner = sweep.NewCachedRunner(nr)
	_, err = s.Fig4a(context.Background())
	if err == nil || !strings.Contains(err.Error(), "physics") {
		t.Fatalf("mismatched fleet error = %v, want a version-mismatch explanation", err)
	}
}

// countingRunner wraps a backend and counts every request dispatched to
// it, so a test can assert a warm cache dispatches exactly zero.
type countingRunner struct {
	inner      sweep.Runner
	dispatched atomic.Int64
}

func (c *countingRunner) Run(ctx context.Context, reqs []testbed.Request) ([]testbed.Measurement, error) {
	c.dispatched.Add(int64(len(reqs)))
	return c.inner.Run(ctx, reqs)
}

func (c *countingRunner) Stream(ctx context.Context, reqs []testbed.Request, emit func(int, testbed.Measurement) error) error {
	c.dispatched.Add(int64(len(reqs)))
	return c.inner.Stream(ctx, reqs, emit)
}

// TestWarmDiskCacheReportByteIdentical pins this PR's tentpole
// acceptance criterion end to end: with a persistent cache directory, a
// second (warm) full-report run — a fresh suite and a fresh store
// handle, as a new process would hold — must be byte-identical to the
// cold run and dispatch zero measurements to the backend, with
// consistent counters.
func TestWarmDiskCacheReportByteIdentical(t *testing.T) {
	dir := t.TempDir()
	newSuite := func() *experiments.Suite {
		t.Helper()
		s, err := experiments.NewSuite(42, 4000, 1000)
		if err != nil {
			t.Fatal(err)
		}
		s.Trials = 5
		s.Workers = 4
		return s
	}

	coldDisk, err := sweep.OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := newSuite()
	cold.Disk = coldDisk
	var coldBuf bytes.Buffer
	if err := cold.WriteReport(&coldBuf); err != nil {
		t.Fatal(err)
	}
	if st, ok := cold.CacheStats(); !ok || st.Misses != 36 || st.DiskHits != 0 {
		t.Fatalf("cold run counters: %+v, want 36 measured / 0 from disk", st)
	}
	if st := coldDisk.Stats(); st.Stores != 36 {
		t.Fatalf("cold run persisted %d cells, want 36", st.Stores)
	}

	warmDisk, err := sweep.OpenDiskCache(dir) // fresh handle: a new process
	if err != nil {
		t.Fatal(err)
	}
	backend := &countingRunner{inner: &sweep.PoolRunner{Workers: 4}}
	warm := newSuite()
	warm.Runner = sweep.NewCachedRunner(backend, sweep.WithDiskCache(warmDisk))
	var warmBuf bytes.Buffer
	if err := warm.WriteReport(&warmBuf); err != nil {
		t.Fatal(err)
	}

	if warmBuf.String() != coldBuf.String() {
		t.Fatal("warm report diverges from the cold report")
	}
	if n := backend.dispatched.Load(); n != 0 {
		t.Fatalf("warm run dispatched %d measurements to the backend, want 0", n)
	}
	st, ok := warm.CacheStats()
	if !ok || st.Misses != 0 || st.DiskHits != 36 || st.Hits != 123-36 {
		t.Fatalf("warm run counters: %+v, want 0 measured / 36 from disk / 87 memory hits", st)
	}
}

// TestPopulationReportByteIdenticalAcrossBackends pins the population
// tentpole end to end: a named scenario expanded into cohorts and swept
// over the pool, proc, and net backends — behind the memoizing cache, at
// different worker counts and shard sizes — must render the byte-identical
// population report.
func TestPopulationReportByteIdenticalAcrossBackends(t *testing.T) {
	cohorts, err := scenario.Generate("offload", scenario.Params{Users: 30, Frames: 6, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	opts := sweep.PopulationOptions{ShardUsers: 4}
	baseline, err := sweep.RunPopulation(context.Background(),
		&sweep.PoolRunner{Workers: 1}, cohorts, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := baseline.Render()
	if !strings.Contains(want, "local-throttled") || !strings.Contains(want, "TOTAL") {
		t.Fatalf("population report incomplete:\n%s", want)
	}

	pr := &sweep.ProcRunner{Procs: 2}
	defer pr.Close()
	nr := &sweep.NetRunner{Nodes: startServeNodes(t, 2)}
	defer nr.Close()
	backends := []struct {
		name string
		r    sweep.Runner
	}{
		{"pool-8", &sweep.PoolRunner{Workers: 8}},
		{"proc", sweep.NewCachedRunner(pr)},
		{"net", sweep.NewCachedRunner(nr)},
	}
	for _, b := range backends {
		res, err := sweep.RunPopulation(context.Background(), b.r, cohorts, opts)
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		if got := res.Render(); got != want {
			t.Errorf("%s population report diverges:\n--- pool\n%s--- %s\n%s",
				b.name, want, b.name, got)
		}
	}
}

// TestPopulationCancelMidSweep checks the ctx-first session API end to
// end: canceling mid-population aborts in-flight shards instead of
// running the cohort to completion.
func TestPopulationCancelMidSweep(t *testing.T) {
	cohorts, err := scenario.Generate("multiplayer", scenario.Params{Users: 500000, Frames: 400, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := sweep.RunPopulation(ctx, &sweep.PoolRunner{Workers: 2}, cohorts,
			sweep.PopulationOptions{ShardUsers: 100})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("canceled population sweep must error")
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("population sweep ignored cancelation for %v", time.Since(start))
	}
}

// TestModelTracksHeldOutDeviceAcrossModes checks the paper's headline
// claim end to end: the fitted analytical model stays within a single-
// digit error band of the bench's ground truth on a held-out device, in
// both inference modes.
func TestModelTracksHeldOutDeviceAcrossModes(t *testing.T) {
	// Fit on one bench seed and measure ground truth on an independent
	// bench (same physics, fresh monitor noise) so the check cannot be
	// satisfied by shared noise.
	fw, _, err := core.NewFitted(21, 8000, 2000)
	if err != nil {
		t.Fatal(err)
	}
	bench := testbed.NewBench(99)

	dev, err := device.ByName("XR4")
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []pipeline.InferenceMode{pipeline.ModeLocal, pipeline.ModeRemote} {
		var preds, gts []float64
		for _, size := range []float64{350, 500, 650} {
			for _, freq := range []float64{1, 1.5, 2} {
				sc, err := pipeline.NewScenario(dev,
					pipeline.WithMode(mode),
					pipeline.WithFrameSize(size),
					pipeline.WithCPUFreq(freq),
				)
				if err != nil {
					t.Fatal(err)
				}
				meas, err := bench.MeasureFrames(sc, 40)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := fw.Analyze(sc)
				if err != nil {
					t.Fatal(err)
				}
				preds = append(preds, rep.Latency.Total)
				gts = append(gts, meas.LatencyMs)
			}
		}
		mape, err := stats.MAPE(preds, gts)
		if err != nil {
			t.Fatal(err)
		}
		if mape > 12 {
			t.Fatalf("%v held-out latency error = %.1f%%, want < 12%%", mode, mape)
		}
	}
}

// TestAnalyticBufferMatchesDES validates the Eq. (7)/(22) M/M/1
// assumption end to end: the buffering delay the latency model charges
// equals the per-class sojourn the discrete-event simulator measures.
func TestAnalyticBufferMatchesDES(t *testing.T) {
	dev, err := device.ByName("XR1")
	if err != nil {
		t.Fatal(err)
	}
	s1, err := sensors.NewSensor("s", 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := pipeline.NewScenario(dev, pipeline.WithSensors(sensors.NewArray(s1), 1))
	if err != nil {
		t.Fatal(err)
	}
	mm1, err := queue.NewMM1(sc.BufferArrivalRatePerMs(), sc.BufferServiceRatePerMs)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := mm1.Simulate(150000, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(sim.MeanSojourn-mm1.MeanSojourn()) / mm1.MeanSojourn(); rel > 0.05 {
		t.Fatalf("DES sojourn %v vs analytic %v", sim.MeanSojourn, mm1.MeanSojourn())
	}

	fw := core.NewWithPaperCoefficients()
	rep, err := fw.Analyze(sc)
	if err != nil {
		t.Fatal(err)
	}
	wantBuffer := float64(sc.BufferClasses()) * mm1.MeanSojourn()
	if math.Abs(rep.Latency.Buffering-wantBuffer) > 1e-9 {
		t.Fatalf("model buffering %v vs analytic %v", rep.Latency.Buffering, wantBuffer)
	}
}

// TestSNRLinkDegradesRemotePipeline wires the Shannon link into the full
// pipeline: pushing the device away from the AP must monotonically raise
// remote-inference end-to-end latency.
func TestSNRLinkDegradesRemotePipeline(t *testing.T) {
	dev, err := device.ByName("XR6")
	if err != nil {
		t.Fatal(err)
	}
	fw := core.NewWithPaperCoefficients()
	radio := wireless.DefaultWiFi5SNR()
	prev := 0.0
	for _, d := range []float64{5, 50, 150, 400} {
		link, err := radio.LinkAt(d)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := pipeline.NewScenario(dev, pipeline.WithMode(pipeline.ModeRemote))
		if err != nil {
			t.Fatal(err)
		}
		sc.EdgeLink = link
		rep, err := fw.Analyze(sc)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Latency.Total <= prev {
			t.Fatalf("latency must grow with distance: %v at %v m", rep.Latency.Total, d)
		}
		prev = rep.Latency.Total
	}
}

// TestDropAwareAoIThroughFiniteBuffer couples the M/M/1/K buffer to the
// AoI model: shrinking the buffer must raise the drop-aware average AoI.
func TestDropAwareAoIThroughFiniteBuffer(t *testing.T) {
	s, err := sensors.NewSensor("s", 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := queue.NewMM1(0.4, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := aoi.Config{Sensor: s, RequestFrequencyHz: 200, Buffer: buf}
	tight, err := queue.NewMM1K(0.9, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	roomy, err := queue.NewMM1K(0.9, 1, 20)
	if err != nil {
		t.Fatal(err)
	}
	aTight, err := cfg.AverageAoIWithDropsMs(4, tight)
	if err != nil {
		t.Fatal(err)
	}
	aRoomy, err := cfg.AverageAoIWithDropsMs(4, roomy)
	if err != nil {
		t.Fatal(err)
	}
	if aTight <= aRoomy {
		t.Fatalf("tight buffer AoI %v must exceed roomy %v", aTight, aRoomy)
	}
}

// TestCacheDirFromEarlierBuildServesWarm pins the persistent cache's
// compatibility across builds. testdata/warmcache was written by an
// earlier xrperf, from before the in-memory cache keyed cells by their
// binary encoding, with
//
//	xrperf report -train 2000 -test 500 -trials 5 -cache-dir testdata/warmcache
//
// The same report over a copy of it must measure nothing — the CLI's
// "0 unique cells measured" — and print the bytes an uncached run
// prints. A failure here means disk keys or entries moved; if that is
// intended (a PhysicsVersion bump, say), regenerate the directory with
// the command above.
func TestCacheDirFromEarlierBuildServesWarm(t *testing.T) {
	dir := t.TempDir()
	const fixture = "testdata/warmcache"
	err := filepath.WalkDir(fixture, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(fixture, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		dst := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		return os.WriteFile(dst, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	report := func(cacheDir string) (string, sweep.CacheStats) {
		t.Helper()
		spec := job.Default()
		spec.TrainRows, spec.TestRows, spec.Trials = 2000, 500, 5
		spec.CacheDir = cacheDir
		suite, cleanup, err := spec.BuildSuite()
		if err != nil {
			t.Fatal(err)
		}
		defer cleanup()
		var buf bytes.Buffer
		if err := (job.Job{Kind: job.KindReport, Spec: spec}).Run(context.Background(), suite, &buf); err != nil {
			t.Fatal(err)
		}
		st, _ := suite.CacheStats()
		return buf.String(), st
	}
	warm, st := report(dir)
	if st.Misses != 0 || st.DiskHits != 36 {
		t.Fatalf("warm run over the earlier cache: %+v, want 0 measured / 36 loaded from disk", st)
	}
	if cold, _ := report(""); warm != cold {
		t.Fatal("report served from the earlier cache diverges from an uncached run")
	}
}
