package sweep

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/testbed"
)

// chaosFleet builds a two-node fleet where the first node sits behind a
// fault-injecting proxy, plus the pool-backend baseline the fleet's
// output must reproduce bit for bit. The second, healthy node answers
// nothing until the proxy has injected its first crash, so the fault
// is exercised however fast the healthy node could drain the sweep
// alone. Batch is pinned to 1 so the
// proxy's frame-count crash points land where the per-request tests
// expect them; the batch-granular kill points get their own tests
// below.
func chaosFleet(t *testing.T, cfg ChaosConfig, trials int) (*ChaosProxy, *NetRunner, []testbed.Request, []testbed.Measurement) {
	t.Helper()
	reqs := testRequests(t, trials)
	want, err := (&PoolRunner{Workers: 2}).Run(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := NewChaosProxy(startServeNode(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	nr := &NetRunner{Nodes: []string{proxy.Addr(), startGatedServeNode(t, proxy.Crashed())}, ConnsPerNode: 1, Batch: 1}
	t.Cleanup(func() { nr.Close() })
	return proxy, nr, reqs, want
}

// TestChaosNodeDeathByteIdentical pins the headline chaos invariant: a
// node whose every connection dies answering (the proxy relays the
// handshake, then swallows the first response frame and drops the
// socket) must not change a single output byte — its batches
// re-dispatch to the healthy node.
func TestChaosNodeDeathByteIdentical(t *testing.T) {
	proxy, nr, reqs, want := chaosFleet(t, ChaosConfig{
		CrashAfterFrames: 2, // hello through, die on the first response
		MaxCrashes:       -1,
	}, 3)
	got, err := nr.Run(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d diverges under injected node death:\npool %+v\nnet  %+v", i, want[i], got[i])
		}
	}
	if proxy.Crashes() == 0 {
		t.Fatal("proxy injected no crashes; the test exercised nothing")
	}
}

// TestChaosMidFrameDisconnectByteIdentical pins the nastier variant: the
// connection dies halfway through a response frame (valid header, half
// the payload), so the dispatcher sees a truncated frame rather than a
// clean close. The shard must re-dispatch and the output stay
// byte-identical.
func TestChaosMidFrameDisconnectByteIdentical(t *testing.T) {
	proxy, nr, reqs, want := chaosFleet(t, ChaosConfig{
		CrashAfterFrames: 2, // hello, then die inside the first response
		CrashMidFrame:    true,
		MaxCrashes:       1,
	}, 3)
	next := 0
	err := nr.Stream(context.Background(), reqs, func(idx int, m testbed.Measurement) error {
		if idx != next {
			t.Fatalf("emitted %d, want %d: order broke under mid-frame disconnect", idx, next)
		}
		if m != want[idx] {
			t.Fatalf("point %d diverges under mid-frame disconnect", idx)
		}
		next++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if next != len(reqs) {
		t.Fatalf("emitted %d of %d", next, len(reqs))
	}
	if proxy.Crashes() != 1 {
		t.Fatalf("proxy crashed %d times, want exactly 1", proxy.Crashes())
	}
}

// TestChaosSlowNodeQuarantine pins routing-around: a node that never
// completes a handshake (the proxy kills every connection before
// relaying the hello) is quarantined after its failure budget, so the
// fleet stops dialing it instead of paying a failed attempt per shard.
// Output stays byte-identical throughout.
func TestChaosSlowNodeQuarantine(t *testing.T) {
	proxy, nr, reqs, want := chaosFleet(t, ChaosConfig{
		CrashAfterFrames: 1, // swallow the hello itself
		MaxCrashes:       -1,
	}, 3)
	got, err := nr.Run(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d diverges with a quarantined node in the fleet:\npool %+v\nnet  %+v", i, want[i], got[i])
		}
	}
	// quarantineAfter consecutive failures bench the node; after that the
	// round-robin skips it, so connection attempts stay near the budget
	// rather than one per shard.
	if c := proxy.Conns(); c > quarantineAfter+2 {
		t.Fatalf("proxy saw %d connections; quarantine should have capped dialing near %d", c, quarantineAfter)
	}
}

// chaosSingleNode builds a single-node fleet entirely behind the proxy
// with multi-request batches, so every crash point lands relative to
// batch frames and every retry must come back through the proxy.
func chaosSingleNode(t *testing.T, cfg ChaosConfig) (*ChaosProxy, *NetRunner, []testbed.Request, []testbed.Measurement) {
	t.Helper()
	reqs := testRequests(t, 3)
	want, err := (&PoolRunner{Workers: 2}).Run(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := NewChaosProxy(startServeNode(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	nr := &NetRunner{Nodes: []string{proxy.Addr()}, ConnsPerNode: 1, Batch: 3}
	t.Cleanup(func() { nr.Close() })
	return proxy, nr, reqs, want
}

// TestChaosBatchBoundaryKill pins node death at a batch boundary: the
// connection delivers one complete multi-request batch result, then
// dies before the next. The delivered batch's results stand, the
// orphaned batch re-dispatches on a fresh connection, and the output
// stays byte-identical.
func TestChaosBatchBoundaryKill(t *testing.T) {
	proxy, nr, reqs, want := chaosSingleNode(t, ChaosConfig{
		CrashAfterFrames: 3, // hello + one full batch result, then death
		MaxCrashes:       1,
	})
	got, err := nr.Run(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d diverges under a batch-boundary kill", i)
		}
	}
	if proxy.Crashes() != 1 {
		t.Fatalf("proxy crashed %d times, want exactly 1", proxy.Crashes())
	}
}

// TestChaosMidBatchCut pins the nastier batch variant: the connection
// dies halfway through a multi-request batch-result frame, so the
// dispatcher sees a truncated frame with several requests' results
// inside it. The whole batch re-dispatches — partial frames deliver
// nothing — and the output stays byte-identical.
func TestChaosMidBatchCut(t *testing.T) {
	proxy, nr, reqs, want := chaosSingleNode(t, ChaosConfig{
		CrashAfterFrames: 2, // hello, then die inside the first batch result
		CrashMidFrame:    true,
		MaxCrashes:       1,
	})
	next := 0
	err := nr.Stream(context.Background(), reqs, func(idx int, m testbed.Measurement) error {
		if idx != next {
			t.Fatalf("emitted %d, want %d: order broke under a mid-batch cut", idx, next)
		}
		if m != want[idx] {
			t.Fatalf("point %d diverges under a mid-batch cut", idx)
		}
		next++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if next != len(reqs) {
		t.Fatalf("emitted %d of %d", next, len(reqs))
	}
	if proxy.Crashes() != 1 {
		t.Fatalf("proxy crashed %d times, want exactly 1", proxy.Crashes())
	}
}

// TestChaosProxyPassthrough pins the harness itself: with no faults
// configured the proxy is invisible — a single-node fleet behind it
// matches the pool bit for bit.
func TestChaosProxyPassthrough(t *testing.T) {
	reqs := testRequests(t, 3)
	want, err := (&PoolRunner{Workers: 2}).Run(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := NewChaosProxy(startServeNode(t), ChaosConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	nr := &NetRunner{Nodes: []string{proxy.Addr()}, ConnsPerNode: 2}
	defer nr.Close()
	got, err := nr.Run(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d diverges through the passthrough proxy", i)
		}
	}
	if proxy.Crashes() != 0 {
		t.Fatalf("passthrough proxy crashed %d connections", proxy.Crashes())
	}
}

// TestChaosRunnerMatchesBackend pins the Runner-level injector: with no
// faults it reproduces its backend exactly, with an injected per-shard
// failure it surfaces that error (lowest index wins), and its delays are
// context-aware so cancelation aborts promptly.
func TestChaosRunnerMatchesBackend(t *testing.T) {
	reqs := testRequests(t, 3)
	want, err := (&PoolRunner{Workers: 2}).Run(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}

	cr := &ChaosRunner{Backend: &PoolRunner{Workers: 2}, Workers: 2}
	got, err := cr.Run(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d diverges through the fault-free chaos runner", i)
		}
	}

	boom := errors.New("injected shard failure")
	cr = &ChaosRunner{Backend: &PoolRunner{Workers: 2}, FailIdx: map[int]error{2: boom}, Workers: 2}
	if _, err := cr.Run(context.Background(), reqs); !errors.Is(err, boom) {
		t.Fatalf("injected failure did not surface: %v", err)
	}

	cr = &ChaosRunner{Backend: &PoolRunner{Workers: 2}, Delay: time.Minute, Workers: 2}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := cr.Run(ctx, reqs)
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled chaos run returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled chaos run did not return promptly")
	}
}
