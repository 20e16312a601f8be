package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// Common errors.
var (
	// ErrBadGrid indicates an invalid grid size.
	ErrBadGrid = errors.New("sweep: negative grid size")
)

// Shard identifies one grid point handed to a worker.
type Shard struct {
	// Index is the point's position in grid order (0-based).
	Index int
	// Seed is the point's deterministic RNG seed, derived from the
	// engine's base seed and Index only.
	Seed int64
}

// Options configures an engine run.
type Options struct {
	// Workers is the pool size; 0 or negative means GOMAXPROCS. The
	// pool never exceeds the grid size.
	Workers int
	// BaseSeed is mixed into every shard seed. Two runs with the same
	// base seed and grid produce identical results.
	BaseSeed int64
}

func (o Options) workers(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	return w
}

// ShardSeed derives the deterministic seed of grid point idx from base
// using a SplitMix64 finalizer, so adjacent indices land on statistically
// independent streams.
func ShardSeed(base int64, idx int) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15*uint64(idx+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// indexed pairs a result with its grid position for reordering.
type indexed[T any] struct {
	idx int
	val T
}

// merge is the ordered merge both parallel engines end in: Stream's
// worker pool and the batch dispatcher (runBatches) deliver results to
// it in any order and it emits each contiguous prefix in grid order.
// deliver runs on the caller's goroutine only; fail may be called from
// any goroutine.
//
// Failures are selected, not raced: a genuine failure always outranks a
// context.Canceled one — a point that died only because a sibling's
// failure (or a failed emit) canceled the sweep — and within a class the
// lowest index wins, no matter which goroutine reported first.
type merge[T any] struct {
	ctx, cctx context.Context // the caller's context and the sweep's
	cancel    context.CancelFunc
	n         int
	emit      func(idx int, v T) error
	pending   map[int]T // out-of-order results awaiting their turn
	next      int       // the next index to emit
	emitErr   error

	mu      sync.Mutex
	failIdx int
	failErr error // the selected point failure; nil while none
}

// newMerge starts the merge of an n-point sweep under ctx. Its cctx is
// the sweep's context, canceled by the first failure; the caller must
// call cancel when the sweep ends.
func newMerge[T any](ctx context.Context, n int, emit func(idx int, v T) error) *merge[T] {
	cctx, cancel := context.WithCancel(ctx)
	return &merge[T]{ctx: ctx, cctx: cctx, cancel: cancel, n: n, emit: emit}
}

// deliver buffers point idx's result and emits every result the prefix
// now reaches. After a failed emit it only drains: the sweep is already
// canceled.
func (m *merge[T]) deliver(idx int, v T) {
	if m.emitErr != nil {
		return
	}
	if idx != m.next {
		if m.pending == nil {
			m.pending = make(map[int]T)
		}
		m.pending[idx] = v
		return
	}
	for {
		if err := m.emit(m.next, v); err != nil {
			m.emitErr = fmt.Errorf("sweep: emit point %d: %w", m.next, err)
			m.cancel()
			return
		}
		m.next++
		var ok bool
		if v, ok = m.pending[m.next]; !ok {
			return
		}
		delete(m.pending, m.next)
	}
}

// fail records point idx's failure under the selection rule and cancels
// the sweep.
func (m *merge[T]) fail(idx int, err error) {
	canceled := errors.Is(err, context.Canceled)
	m.mu.Lock()
	if m.failErr == nil ||
		(!canceled && errors.Is(m.failErr, context.Canceled)) ||
		(canceled == errors.Is(m.failErr, context.Canceled) && idx < m.failIdx) {
		m.failIdx, m.failErr = idx, err
	}
	m.mu.Unlock()
	m.cancel()
}

// result is the sweep's error once every result has been delivered and
// no further failure can be reported.
func (m *merge[T]) result() error {
	m.mu.Lock()
	idx, err := m.failIdx, m.failErr
	m.mu.Unlock()
	// An emit failure cancels the sweep, so points dying afterwards
	// report consequential context.Canceled errors; prefer the emit error
	// (the root cause) over those, but never over a genuine point
	// failure.
	if err != nil && (m.emitErr == nil || !errors.Is(err, context.Canceled)) {
		return fmt.Errorf("sweep: point %d: %w", idx, err)
	}
	if m.emitErr != nil {
		return m.emitErr
	}
	if err := m.ctx.Err(); err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	if m.next != m.n {
		// Cancelation raced result delivery: some points never ran.
		return fmt.Errorf("sweep: %w", m.cctx.Err())
	}
	return nil
}

// Run evaluates n grid points across the worker pool and returns their
// results in grid order. fn receives a canceled context as soon as any
// point fails or the caller's context ends; the first (lowest-index)
// point error is returned. A zero-size grid returns an empty slice.
func Run[T any](ctx context.Context, n int, opts Options, fn func(ctx context.Context, sh Shard) (T, error)) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("%w: %d", ErrBadGrid, n)
	}
	out := make([]T, 0, n)
	err := Stream(ctx, n, opts, fn, func(_ int, v T) error {
		out = append(out, v)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Stream evaluates n grid points across the worker pool and invokes emit
// on the caller's goroutine in strict grid order, as soon as each prefix
// of the grid completes — point k is emitted the moment points 0..k are
// all done, even while later points are still in flight. Results that
// finish out of order are buffered until their turn. A non-nil error
// from emit cancels the sweep and is returned.
func Stream[T any](ctx context.Context, n int, opts Options, fn func(ctx context.Context, sh Shard) (T, error), emit func(idx int, v T) error) error {
	if n < 0 {
		return fmt.Errorf("%w: %d", ErrBadGrid, n)
	}
	if n == 0 {
		return ctx.Err()
	}

	m := newMerge(ctx, n, emit)
	defer m.cancel()

	jobs := make(chan int)
	results := make(chan indexed[T], n)
	workers := opts.workers(n)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				if m.cctx.Err() != nil {
					return
				}
				v, err := fn(m.cctx, Shard{Index: idx, Seed: ShardSeed(opts.BaseSeed, idx)})
				if err != nil {
					m.fail(idx, err)
					return
				}
				results <- indexed[T]{idx, v}
			}
		}()
	}

	go func() {
		defer close(jobs)
		for i := 0; i < n; i++ {
			select {
			case jobs <- i:
			case <-m.cctx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(results)
	}()

	for r := range results {
		m.deliver(r.idx, r.val)
	}
	return m.result()
}
