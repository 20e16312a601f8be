package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunZeroSizeGrid(t *testing.T) {
	out, err := Run(context.Background(), 0, 0,
		func(context.Context, int) (int, error) {
			t.Fatal("fn must not run on an empty grid")
			return 0, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("results = %d, want 0", len(out))
	}
}

func TestRunNegativeGrid(t *testing.T) {
	_, err := Run(context.Background(), -1, 0,
		func(context.Context, int) (int, error) { return 0, nil })
	if !errors.Is(err, ErrBadGrid) {
		t.Fatalf("err = %v, want ErrBadGrid", err)
	}
}

// TestRunOrdersResults checks ordered collection despite out-of-order
// completion: early indices sleep so later ones finish first.
func TestRunOrdersResults(t *testing.T) {
	const n = 32
	out, err := Run(context.Background(), n, 8,
		func(_ context.Context, i int) (int, error) {
			if i < 8 {
				time.Sleep(3 * time.Millisecond)
			}
			return i * i, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n {
		t.Fatalf("results = %d, want %d", len(out), n)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// TestRunDeterministicAcrossWorkerCounts checks the engine's core
// contract: a point's result depends only on its index, never on which
// worker ran it or when, so any worker count produces identical results.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	const n = 40
	run := func(workers int) []int64 {
		t.Helper()
		out, err := Run(context.Background(), n, workers,
			func(_ context.Context, i int) (int64, error) { return ShardSeed(7, i), nil })
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := run(1)
	for _, workers := range []int{2, 4, 16, 0} {
		got := run(workers)
		for i := range serial {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d: seed[%d] = %d, serial = %d",
					workers, i, got[i], serial[i])
			}
		}
	}
}

func TestShardSeedsDiffer(t *testing.T) {
	seen := map[int64]int{}
	for i := 0; i < 1000; i++ {
		s := ShardSeed(42, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision: indices %d and %d", prev, i)
		}
		seen[s] = i
	}
	if ShardSeed(1, 0) == ShardSeed(2, 0) {
		t.Fatal("base seed must change shard seeds")
	}
}

func TestRunSingleWorker(t *testing.T) {
	var active, maxActive int32
	out, err := Run(context.Background(), 20, 1,
		func(_ context.Context, i int) (int, error) {
			cur := atomic.AddInt32(&active, 1)
			defer atomic.AddInt32(&active, -1)
			for {
				prev := atomic.LoadInt32(&maxActive)
				if cur <= prev || atomic.CompareAndSwapInt32(&maxActive, prev, cur) {
					break
				}
			}
			return i, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 20 {
		t.Fatalf("results = %d", len(out))
	}
	if got := atomic.LoadInt32(&maxActive); got != 1 {
		t.Fatalf("max concurrent points = %d, want 1", got)
	}
}

// TestRunErrorStopsEarly checks error propagation: a failing point must
// surface its error and cancel the remaining grid.
func TestRunErrorStopsEarly(t *testing.T) {
	boom := errors.New("boom")
	var ran int32
	const n = 10000
	_, err := Run(context.Background(), n, 4,
		func(_ context.Context, i int) (int, error) {
			atomic.AddInt32(&ran, 1)
			if i == 5 {
				return 0, boom
			}
			return i, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if got := atomic.LoadInt32(&ran); got >= n {
		t.Fatalf("engine ran all %d points despite an early error", got)
	}
}

// TestRunLowestIndexErrorWins checks that simultaneous failures surface
// the earliest grid point's error.
func TestRunLowestIndexErrorWins(t *testing.T) {
	var gate sync.WaitGroup
	gate.Add(4)
	_, err := Run(context.Background(), 4, 4,
		func(_ context.Context, i int) (int, error) {
			gate.Done()
			gate.Wait() // all four points fail together
			return 0, fmt.Errorf("point-%d failed", i)
		})
	if err == nil {
		t.Fatal("want error")
	}
	want := "sweep: point 0: point-0 failed"
	if err.Error() != want {
		t.Fatalf("err = %q, want %q", err, want)
	}
}

// TestRunMidSweepCancelation checks that canceling the caller context
// aborts the sweep and surfaces context.Canceled.
func TestRunMidSweepCancelation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran int32
	const n = 100000
	_, err := Run(ctx, n, 2,
		func(ctx context.Context, i int) (int, error) {
			if atomic.AddInt32(&ran, 1) == 10 {
				cancel()
			}
			return i, nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := atomic.LoadInt32(&ran); got >= n {
		t.Fatal("cancelation did not stop the sweep early")
	}
}

func TestRunPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, 8, 0,
		func(_ context.Context, i int) (int, error) { return i, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestStreamEmitsPrefixesInOrder checks the streaming contract: emit is
// called in strict index order with each contiguous completed prefix.
func TestStreamEmitsPrefixesInOrder(t *testing.T) {
	const n = 64
	var got []int
	err := Stream(context.Background(), n, 8,
		func(_ context.Context, i int) (int, error) {
			if i%7 == 0 {
				time.Sleep(time.Millisecond)
			}
			return i, nil
		},
		func(idx int, v int) error {
			if idx != v {
				t.Errorf("emit idx %d carries value %d", idx, v)
			}
			got = append(got, idx)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("emitted %d, want %d", len(got), n)
	}
	for i, idx := range got {
		if idx != i {
			t.Fatalf("emit order broken at %d: got index %d", i, idx)
		}
	}
}

func TestStreamEmitErrorCancels(t *testing.T) {
	halt := errors.New("halt")
	var emitted int
	err := Stream(context.Background(), 1000, 4,
		func(_ context.Context, i int) (int, error) { return i, nil },
		func(idx int, _ int) error {
			emitted++
			if idx == 3 {
				return halt
			}
			return nil
		})
	if !errors.Is(err, halt) {
		t.Fatalf("err = %v, want halt", err)
	}
	if emitted != 4 {
		t.Fatalf("emitted %d points, want 4", emitted)
	}
}

// TestStreamEmitErrorNotMaskedByCanceledWorkers pins the error
// precedence of a failed emit: the cancelation it triggers makes
// in-flight workers die with context.Canceled, and the root-cause emit
// error — not a consequential worker error — must surface.
func TestStreamEmitErrorNotMaskedByCanceledWorkers(t *testing.T) {
	writeErr := errors.New("write failed")
	err := Stream(context.Background(), 2, 2,
		func(ctx context.Context, i int) (int, error) {
			if i == 1 {
				<-ctx.Done() // dies only because the emit error canceled us
				return 0, ctx.Err()
			}
			return 1, nil
		},
		func(int, int) error { return writeErr })
	if !errors.Is(err, writeErr) {
		t.Fatalf("err = %v, want the emit error", err)
	}
}

// The tests below drive task groups: a slice of heterogeneous units run
// by index, the shape experiments.Suite's RunAll and StreamAll use.

// runTasks runs tasks as one group on the engine.
func runTasks[T any](ctx context.Context, tasks []func(context.Context) (T, error), workers int) ([]T, error) {
	return Run(ctx, len(tasks), workers, func(ctx context.Context, i int) (T, error) { return tasks[i](ctx) })
}

func TestRunTasksOrdersResults(t *testing.T) {
	var tasks []func(context.Context) (string, error)
	for i := 0; i < 16; i++ {
		i := i
		tasks = append(tasks, func(context.Context) (string, error) {
			if i < 4 {
				time.Sleep(3 * time.Millisecond) // later tasks finish first
			}
			return fmt.Sprintf("result-%d", i), nil
		})
	}
	out, err := runTasks(context.Background(), tasks, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(tasks) {
		t.Fatalf("results = %d, want %d", len(out), len(tasks))
	}
	for i, v := range out {
		if want := fmt.Sprintf("result-%d", i); v != want {
			t.Fatalf("out[%d] = %q, want %q", i, v, want)
		}
	}
}

func TestStreamTasksEmitsPrefixesInOrder(t *testing.T) {
	tasks := []func(context.Context) (int, error){
		func(context.Context) (int, error) { // slow
			time.Sleep(3 * time.Millisecond)
			return 10, nil
		},
		func(context.Context) (int, error) { return 20, nil }, // fast
	}
	var order []int
	err := Stream(context.Background(), len(tasks), 2,
		func(ctx context.Context, i int) (int, error) { return tasks[i](ctx) },
		func(idx int, v int) error {
			if v != (idx+1)*10 {
				t.Fatalf("task %d value = %d", idx, v)
			}
			order = append(order, idx)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("emit order = %v, want [0 1] (slow before fast)", order)
	}
}

func TestRunTasksPropagatesLowestIndexError(t *testing.T) {
	boom := errors.New("boom")
	tasks := []func(context.Context) (int, error){
		func(context.Context) (int, error) { return 1, nil },
		func(context.Context) (int, error) { return 0, boom },
	}
	if _, err := runTasks(context.Background(), tasks, 1); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestStreamTasksEmitErrorCancels(t *testing.T) {
	stop := errors.New("stop")
	tasks := []func(context.Context) (int, error){
		func(context.Context) (int, error) { return 1, nil },
		func(ctx context.Context) (int, error) {
			select { // give the emit error time to cancel the group
			case <-ctx.Done():
			case <-time.After(time.Second):
			}
			return 2, nil
		},
	}
	err := Stream(context.Background(), len(tasks), 2,
		func(ctx context.Context, i int) (int, error) { return tasks[i](ctx) },
		func(int, int) error { return stop })
	if !errors.Is(err, stop) {
		t.Fatalf("err = %v, want stop", err)
	}
}

// TestRunTasksRealErrorNotMaskedByCanceledSibling pins error precedence
// for ctx-aware points: when a later point's genuine failure cancels the
// sweep, an earlier in-flight point that dies with the consequential
// context.Canceled must not mask the root cause just by having the
// lower index.
func TestRunTasksRealErrorNotMaskedByCanceledSibling(t *testing.T) {
	boom := errors.New("boom")
	_, err := Run(context.Background(), 2, 2, func(ctx context.Context, i int) (int, error) {
		if i == 0 {
			<-ctx.Done() // dies only because the sibling's failure canceled us
			return 0, ctx.Err()
		}
		return 0, boom // genuinely broken
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the genuine point error", err)
	}
}
