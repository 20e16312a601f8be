package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/device"
	"repro/internal/energy"
	"repro/internal/latency"
	"repro/internal/pipeline"
	"repro/internal/sweep"
	"repro/internal/testbed"
)

// Common errors.
var (
	// ErrUnknownExperiment indicates an unrecognized experiment id.
	ErrUnknownExperiment = errors.New("experiments: unknown experiment")
)

// Defaults for suite construction. Trials averages repeated measurements
// per ground-truth point (the paper's controlled repeated experiments).
const (
	DefaultTrainRows = 20000
	DefaultTestRows  = 6000
	DefaultTrials    = 30
	// SweepDevice is the device used for the Fig. 4/5 sweeps; XR1 is the
	// only Table I device whose CPU reaches the paper's 3 GHz operating
	// point.
	SweepDevice = "XR1"
	// SweepCPUShare biases the sweeps toward the CPU so the frequency
	// axis of Fig. 4 is the dominant knob, as in the paper's plots.
	SweepCPUShare = 0.9
)

// FrameSizes is the Fig. 4/5 x-axis (pixel² unit).
func FrameSizes() []float64 { return []float64{300, 400, 500, 600, 700} }

// CPUFrequencies is the Fig. 4 series set in GHz.
func CPUFrequencies() []float64 { return []float64{1, 2, 3} }

// Suite owns the synthetic bench, the re-fitted models, and the evaluation
// configuration shared by all experiments.
type Suite struct {
	// Bench is the simulated testbed.
	Bench *testbed.Bench
	// Fitted holds the re-fitted regression models.
	Fitted *testbed.FitResult
	// Latency is the proposed analytical model wired with the fitted
	// components.
	Latency latency.Models
	// Energy is the proposed energy model wired with the fitted
	// components.
	Energy energy.Models
	// Trials is the measurement-averaging count for ground truth.
	Trials int
	// Seed is the bench seed; sweep shard seeds derive from it so every
	// figure is reproducible run-to-run and worker-count-independent.
	Seed int64
	// Workers sizes the sweep worker pool; 0 means GOMAXPROCS. Results
	// are byte-identical for any worker count.
	Workers int
	// Runner is the measurement execution backend. Nil selects the
	// default: an in-process sweep.PoolRunner sized by Workers, wrapped
	// in the memoizing measurement cache. Set it before the first run
	// (e.g. to a cached sweep.ProcRunner) to dispatch ground-truth
	// measurements elsewhere; every backend produces byte-identical
	// results at any parallelism.
	Runner sweep.Runner
	// Disk optionally persists measured cells across suite lifetimes
	// and processes: the default cached runner consults it before
	// dispatching to the backend and writes completed measurements
	// back, so a warm run re-measures nothing yet stays byte-identical.
	// It only applies to the default runner; a custom Runner attaches
	// its own store via sweep.WithDiskCache. Set before the first run.
	Disk *sweep.DiskCache

	defOnce   sync.Once
	defRunner sweep.Runner
}

// runner resolves the measurement backend, building the default cached
// in-process pool on first use.
func (s *Suite) runner() sweep.Runner {
	if r := s.Runner; r != nil {
		return r
	}
	s.defOnce.Do(func() {
		s.defRunner = sweep.NewCachedRunner(&sweep.PoolRunner{
			Workers: s.Workers,
			Exec:    testbed.NewExecutor(s.Bench),
		}, sweep.WithDiskCache(s.Disk))
	})
	return s.defRunner
}

// CacheStats reports the measurement cache's counters (including disk
// hits when a persistent store is attached); ok is false when the suite
// runs on a custom uncached Runner.
func (s *Suite) CacheStats() (sweep.CacheStats, bool) {
	c, ok := s.runner().(*sweep.CachedRunner)
	if !ok {
		return sweep.CacheStats{}, false
	}
	return c.Stats(), true
}

// request builds the serializable measurement unit for one scenario. The
// monitor-noise seed is content-addressed — derived from (Suite.Seed,
// request fingerprint) — so the same grid cell requested by any
// experiment, in any order, on any backend draws the same noise stream;
// that is what lets the cache serve repeats across Fig. 4, Fig. 5, and
// the ablation without changing a byte of output.
func (s *Suite) request(sc *pipeline.Scenario) (testbed.Request, error) {
	req := testbed.Request{Scenario: sc, Trials: s.Trials, NoiseRel: s.Bench.NoiseRel}
	seed, err := req.ContentSeed(s.Seed)
	if err != nil {
		return testbed.Request{}, err
	}
	req.Seed = seed
	return req, nil
}

// seedChunk is the fewest cells one goroutine derives seeds for. A
// seed costs microseconds, so a smaller chunk would spend more on the
// goroutine than it saves; jobs under two chunks derive every seed on
// the caller's goroutine.
const seedChunk = 64

// requests builds the seeded requests for the scenarios, deriving the
// content seeds in contiguous chunks across up to GOMAXPROCS
// goroutines. Each index is written by exactly one goroutine, and the
// error returned is the one of the lowest failing index, as a serial
// loop would report.
func (s *Suite) requests(scs []*pipeline.Scenario) ([]testbed.Request, error) {
	reqs := make([]testbed.Request, len(scs))
	chunks := max(1, min(runtime.GOMAXPROCS(0), len(scs)/seedChunk))
	per := (len(scs) + chunks - 1) / chunks
	errs := make([]error, chunks)
	derive := func(c int) {
		for i := c * per; i < min((c+1)*per, len(scs)); i++ {
			req, err := s.request(scs[i])
			if err != nil {
				errs[c] = err
				return
			}
			reqs[i] = req
		}
	}
	var wg sync.WaitGroup
	for c := 1; c < chunks; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			derive(c)
		}(c)
	}
	derive(0)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return reqs, nil
}

// streamMeasurements runs seeded ground-truth measurements for the
// scenarios on the suite's backend, invoking emit on the caller's
// goroutine in input order as each prefix completes.
func (s *Suite) streamMeasurements(ctx context.Context, scs []*pipeline.Scenario, emit func(i int, m testbed.Measurement) error) error {
	reqs, err := s.requests(scs)
	if err != nil {
		return err
	}
	return s.runner().Stream(ctx, reqs, emit)
}

// measure runs seeded ground-truth measurements for the scenarios on the
// suite's backend, returning observations in input order.
func (s *Suite) measure(ctx context.Context, scs []*pipeline.Scenario) ([]testbed.Measurement, error) {
	out := make([]testbed.Measurement, 0, len(scs))
	err := s.streamMeasurements(ctx, scs, func(_ int, m testbed.Measurement) error {
		out = append(out, m)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// NewSuite builds a suite: spin up the bench, generate the synthetic
// datasets, and fit the regression models per the Section VII protocol.
func NewSuite(seed int64, trainRows, testRows int) (*Suite, error) {
	bench := testbed.NewBench(seed)
	fitted, err := bench.FitModels(trainRows, testRows)
	if err != nil {
		return nil, fmt.Errorf("fit models: %w", err)
	}
	lm := latency.Models{
		Resource:   fitted.Resource,
		Encoder:    fitted.Encoder,
		Complexity: fitted.Complexity,
	}
	return &Suite{
		Bench:   bench,
		Fitted:  fitted,
		Latency: lm,
		Energy:  energy.Models{Latency: lm, Power: fitted.Power},
		Trials:  DefaultTrials,
		Seed:    seed,
	}, nil
}

// NewDefaultSuite builds a suite with the default dataset sizes.
func NewDefaultSuite(seed int64) (*Suite, error) {
	return NewSuite(seed, DefaultTrainRows, DefaultTestRows)
}

// sweepScenario builds one Fig. 4 sweep point on the sweep device.
func (s *Suite) sweepScenario(mode pipeline.InferenceMode, frameSize, cpuFreq float64) (*pipeline.Scenario, error) {
	dev, err := device.ByName(SweepDevice)
	if err != nil {
		return nil, fmt.Errorf("sweep device: %w", err)
	}
	return pipeline.NewScenario(dev,
		pipeline.WithMode(mode),
		pipeline.WithFrameSize(frameSize),
		pipeline.WithCPUFreq(cpuFreq),
		pipeline.WithCPUShare(SweepCPUShare),
	)
}

// Result is the common interface of all experiment outputs.
type Result interface {
	// ID returns the experiment identifier (e.g. "fig4a").
	ID() string
	// Render returns the human-readable table/series text.
	Render() string
}

// IDs lists the experiment identifiers in paper order.
func IDs() []string {
	return []string{
		"table1", "table2", "fit",
		"fig4a", "fig4b", "fig4c", "fig4d", "fig4e", "fig4f",
		"fig5a", "fig5b", "ablation",
	}
}

// Run executes one experiment by id.
func (s *Suite) Run(id string) (Result, error) {
	return s.RunContext(context.Background(), id)
}

// RunContext executes one experiment by id; canceling ctx aborts the
// experiment's in-flight sweeps.
func (s *Suite) RunContext(ctx context.Context, id string) (Result, error) {
	switch id {
	case "table1":
		return s.Table1(ctx)
	case "table2":
		return s.Table2(ctx)
	case "fit":
		return s.FitSummary(ctx)
	case "fig4a":
		return s.Fig4a(ctx)
	case "fig4b":
		return s.Fig4b(ctx)
	case "fig4c":
		return s.Fig4c(ctx)
	case "fig4d":
		return s.Fig4d(ctx)
	case "fig4e":
		return s.Fig4e(ctx)
	case "fig4f":
		return s.Fig4f(ctx)
	case "fig5a":
		return s.Fig5a(ctx)
	case "fig5b":
		return s.Fig5b(ctx)
	case "ablation":
		return s.Ablation(ctx)
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownExperiment, id)
	}
}

// tasks wraps every experiment as a named sweep task. The experiments
// are mutually independent — they share only read-only suite state (the
// bench physics, the fitted models) and draw noise from per-experiment
// seed streams — so the group can run at any parallelism.
func (s *Suite) tasks() []sweep.Task[Result] {
	tasks := make([]sweep.Task[Result], 0, len(IDs()))
	for _, id := range IDs() {
		id := id
		tasks = append(tasks, sweep.Task[Result]{
			Name: id,
			Run: func(ctx context.Context) (Result, error) {
				r, err := s.RunContext(ctx, id)
				if err != nil {
					return nil, fmt.Errorf("experiment %s: %w", id, err)
				}
				return r, nil
			},
		})
	}
	return tasks
}

// RunAll executes every experiment concurrently across the suite's worker
// pool and returns the results in paper order. Output is byte-identical
// for any worker count. Workers bounds each pool level, not their
// product: the task group runs up to Workers experiments at once and
// each experiment's inner sweep uses its own Workers-sized pool, so the
// transient goroutine count can reach Workers²; on oversubscribed hosts
// this costs scheduler time only, never changes a byte of output.
func (s *Suite) RunAll() ([]Result, error) {
	return sweep.RunTasks(context.Background(), s.tasks(),
		sweep.Options{Workers: s.Workers})
}

// StreamAll executes every experiment concurrently and invokes emit in
// paper order as soon as each prefix of the evaluation completes —
// experiment k is emitted the moment experiments 0..k are all done, even
// while later ones are still running. A non-nil error from emit cancels
// the remaining experiments.
func (s *Suite) StreamAll(ctx context.Context, emit func(r Result) error) error {
	return sweep.StreamTasks(ctx, s.tasks(), sweep.Options{Workers: s.Workers},
		func(_ int, _ string, r Result) error { return emit(r) })
}
