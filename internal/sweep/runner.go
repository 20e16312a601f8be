package sweep

import (
	"context"
	"sync"

	"repro/internal/testbed"
)

// Runner is a pluggable sweep execution backend: it evaluates a batch of
// serializable work units (testbed.Request) and delivers the results in
// strict request order. Implementations must honor the engine contract —
// deterministic output for a given request batch at any parallelism,
// prefix-ordered streaming, prompt cancelation, and lowest-index error
// propagation — so the experiments layer can swap backends (in-process
// pool, worker subprocesses, a memoizing cache over either) without its
// output changing by a byte.
type Runner interface {
	// Run evaluates every request and returns the measurements in
	// request order. The first (lowest-index) failure cancels the batch
	// and is returned.
	Run(ctx context.Context, reqs []testbed.Request) ([]testbed.Measurement, error)
	// Stream evaluates every request and invokes emit on the caller's
	// goroutine in strict request order, as soon as each prefix
	// completes — request k is emitted the moment requests 0..k are all
	// done, even while later ones are in flight. A non-nil error from
	// emit cancels the batch and is returned.
	Stream(ctx context.Context, reqs []testbed.Request, emit func(idx int, m testbed.Measurement) error) error
}

// collectStream adapts a Stream implementation into Run semantics.
func collectStream(ctx context.Context, n int,
	stream func(ctx context.Context, emit func(idx int, m testbed.Measurement) error) error,
) ([]testbed.Measurement, error) {
	out := make([]testbed.Measurement, 0, n)
	err := stream(ctx, func(_ int, m testbed.Measurement) error {
		out = append(out, m)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// PoolRunner executes requests on an in-process worker pool — the default
// backend, equivalent to the pre-Runner engine wiring.
type PoolRunner struct {
	// Workers sizes the pool; 0 or negative means GOMAXPROCS.
	Workers int
	// Exec optionally pins the executor (bench + refit memo); nil lazily
	// builds a default one, which measures identically for seeded
	// requests because the hidden physics is deterministic.
	Exec *testbed.Executor

	once sync.Once
	def  *testbed.Executor
}

func (p *PoolRunner) executor() *testbed.Executor {
	if p.Exec != nil {
		return p.Exec
	}
	p.once.Do(func() { p.def = testbed.NewExecutor(nil) })
	return p.def
}

// Run implements Runner.
func (p *PoolRunner) Run(ctx context.Context, reqs []testbed.Request) ([]testbed.Measurement, error) {
	return collectStream(ctx, len(reqs), func(ctx context.Context, emit func(int, testbed.Measurement) error) error {
		return p.Stream(ctx, reqs, emit)
	})
}

// Stream implements Runner on the generic in-process engine. Each shard
// executes under the sweep's cancelable context, so long-running requests
// (session blocks) abort mid-run instead of finishing after a cancel.
func (p *PoolRunner) Stream(ctx context.Context, reqs []testbed.Request, emit func(idx int, m testbed.Measurement) error) error {
	exec := p.executor()
	return Stream(ctx, len(reqs), p.Workers,
		func(sctx context.Context, i int) (testbed.Measurement, error) {
			return exec.Do(sctx, reqs[i])
		}, emit)
}
