package sweep

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/testbed"
)

// fakeTransport answers every batch it is sent with one item per
// request whose latency is the request's grid index, and reports itself
// benched from its first answer on when benchOnAnswer is set.
type fakeTransport struct {
	benchOnAnswer bool
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
