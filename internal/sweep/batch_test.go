package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testbed"
)

// fakeTransport answers every batch it is sent, after delay, with one
// item per request whose latency is the request's grid index, and
// reports itself benched from its first answer on when benchOnAnswer is
// set.
type fakeTransport struct {
	benchOnAnswer bool
	delay         time.Duration
	sent          chan testbed.WireBatch
	dead          chan struct{}
	killOnce      sync.Once
	sends         atomic.Int64
	isBenched     atomic.Bool
	parked        atomic.Bool
}

func newFakeTransport(benchOnAnswer bool) *fakeTransport {
	return &fakeTransport{benchOnAnswer: benchOnAnswer, sent: make(chan testbed.WireBatch, 64), dead: make(chan struct{})}
}

func (f *fakeTransport) send(b testbed.WireBatch) error {
	f.sends.Add(1)
	f.sent <- b
	return nil
}

func (f *fakeTransport) recv() (testbed.WireBatchResult, error) {
	select {
	case b := <-f.sent:
		if f.delay > 0 {
			select {
			case <-time.After(f.delay):
			case <-f.dead:
				return testbed.WireBatchResult{}, &workerFailure{errors.New("fake transport destroyed")}
			}
		}
		res := testbed.WireBatchResult{ID: b.ID, Items: make([]testbed.WireItem, len(b.Reqs))}
		for i := range res.Items {
			res.Items[i].M.LatencyMs = float64(b.ID + i)
		}
		if f.benchOnAnswer {
			f.isBenched.Store(true)
		}
		return res, nil
	case <-f.dead:
		return testbed.WireBatchResult{}, &workerFailure{errors.New("fake transport destroyed")}
	}
}

func (f *fakeTransport) benched() bool { return f.isBenched.Load() }

func (f *fakeTransport) success()                     {}
func (f *fakeTransport) reject(msg string) error      { return errors.New(msg) }
func (f *fakeTransport) corrupt(string, ...any) error { return &workerFailure{errors.New("corrupt")} }
func (f *fakeTransport) park()                        { f.parked.Store(true) }
func (f *fakeTransport) fail(error)                   { f.destroy() }
func (f *fakeTransport) abort()                       { f.destroy() }
func (f *fakeTransport) destroy()                     { f.killOnce.Do(func() { close(f.dead) }) }

// fakeSource hands out its transports in order, then keeps handing out
// the last one.
type fakeSource struct {
	mu   sync.Mutex
	next []*fakeTransport
}

func (s *fakeSource) acquire(context.Context) (batchTransport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.next[0]
	if len(s.next) > 1 {
		s.next = s.next[1:]
	}
	return t, nil
}

// TestDriveStopsSendingToBenchedTransport pins the quarantine check in
// the dispatcher's send loop: once a checked-out transport's source is
// benched, the transport is sent nothing beyond the window already in
// flight. It retires healthy (parked, not failed), its unsent batches
// return to the queue uncharged, and the sweep completes in order on
// the next transport.
func TestDriveStopsSendingToBenchedTransport(t *testing.T) {
	reqs := testRequests(t, 1)
	benched, healthy := newFakeTransport(true), newFakeTransport(false)
	cfg := batchConfig{
		sessions: 1,
		batch:    1,
		depth:    2,
		budget:   1, // any charged attempt would fail the sweep
		source:   &fakeSource{next: []*fakeTransport{benched, healthy}},
		givingUp: func(j *batchJob) error { return errors.New("batch charged an attempt") },
	}
	next := 0
	err := runBatches(context.Background(), reqs, cfg, func(idx int, m testbed.Measurement) error {
		if idx != next || m.LatencyMs != float64(idx) {
			t.Errorf("emitted point %d (latency %v), want point %d", idx, m.LatencyMs, next)
		}
		next++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if next != len(reqs) {
		t.Fatalf("emitted %d of %d points", next, len(reqs))
	}
	if n := benched.sends.Load(); n != int64(cfg.depth) {
		t.Fatalf("benched transport was sent %d batches, want only its %d-batch window", n, cfg.depth)
	}
	if !benched.parked.Load() {
		t.Fatal("benched transport was not retired healthy")
	}
	if n := healthy.sends.Load(); n != int64(len(reqs)-cfg.depth) {
		t.Fatalf("healthy transport was sent %d batches, want %d", n, len(reqs)-cfg.depth)
	}
}

// pooledTransport is a fakeTransport checked out of a bounded pool, the
// shape of the proc backend's slot pool: park returns it, and a failed
// or aborted transport is replaced by a fresh one.
type pooledTransport struct {
	*fakeTransport
	pool chan *pooledTransport
}

func newPooledTransport(pool chan *pooledTransport) *pooledTransport {
	f := newFakeTransport(false)
	f.delay = 2 * time.Millisecond
	return &pooledTransport{fakeTransport: f, pool: pool}
}

func (p *pooledTransport) park()      { p.pool <- p }
func (p *pooledTransport) fail(error) { p.abort() }
func (p *pooledTransport) abort() {
	p.destroy()
	p.pool <- newPooledTransport(p.pool)
}

// boundedSource blocks acquire until the pool has a transport free.
type boundedSource struct{ pool chan *pooledTransport }

func (s boundedSource) acquire(ctx context.Context) (batchTransport, error) {
	select {
	case t := <-s.pool:
		return t, nil
	case <-ctx.Done():
		return nil, &terminalError{err: ctx.Err()}
	}
}

// TestConcurrentDispatchersShareBoundedSource pins the dispatcher's
// one rule: a lane holds no transport while it has no batch to send.
// Three dispatchers, stealing as every dispatch does, share a source of
// two transports whose acquire blocks until one is free — concurrent
// Stream calls on one ProcRunner. A lane idling on a transport would
// hold the slot another dispatcher's batch waits for, and the round
// would deadlock.
func TestConcurrentDispatchersShareBoundedSource(t *testing.T) {
	reqs := testRequests(t, 1)
	pool := make(chan *pooledTransport, 2)
	for i := 0; i < cap(pool); i++ {
		pool <- newPooledTransport(pool)
	}
	cfg := batchConfig{
		sessions:   2,
		batch:      1,
		depth:      2,
		budget:     1, // no transport ever fails
		source:     boundedSource{pool},
		givingUp:   func(j *batchJob) error { return fmt.Errorf("batch %d charged an attempt", j.off) },
		stealAfter: time.Millisecond,
	}
	for round := 0; round < 30; round++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		errs := make([]error, 3)
		var wg sync.WaitGroup
		for k := range errs {
			k := k
			wg.Add(1)
			go func() {
				defer wg.Done()
				next := 0
				errs[k] = runBatches(ctx, reqs, cfg, func(idx int, m testbed.Measurement) error {
					if idx != next || m.LatencyMs != float64(idx) {
						return fmt.Errorf("emitted point %d (latency %v), want point %d", idx, m.LatencyMs, next)
					}
					next++
					return nil
				})
			}()
		}
		wg.Wait()
		cancel()
		for k, err := range errs {
			if err != nil {
				t.Fatalf("round %d, dispatcher %d: %v", round, k, err)
			}
		}
	}
}
