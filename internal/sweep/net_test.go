package sweep

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testbed"
)

// startServeNode runs a real worker-fleet node (testbed.ServeListener)
// on a loopback listener for the test's lifetime.
func startServeNode(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return serveOn(t, ln)
}

// serveOn runs a worker-fleet node on ln for the test's lifetime and
// returns its address.
func serveOn(t *testing.T, ln net.Listener) string {
	t.Helper()
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
	return ln.Addr().String()
}

// startGatedServeNode runs a worker-fleet node behind a proxy that
// passes the handshake at once but withholds every answer until gate
// closes. The node-death tests hold their healthy node on it until the
// faulty node has seen work; otherwise cheap cells let the healthy node
// drain the sweep first and the fault is never exercised.
func startGatedServeNode(t *testing.T, gate <-chan struct{}) string {
	t.Helper()
	return gateNode(t, startServeNode(t), gate)
}

// gateNode fronts the node at addr with startGatedServeNode's proxy.
func gateNode(t *testing.T, addr string, gate <-chan struct{}) string {
	t.Helper()
	proxy, err := NewChaosProxy(addr, ChaosConfig{Hold: gate})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	return proxy.Addr()
}

// startRawNode runs a hand-rolled node whose per-connection behaviour is
// supplied by the test — the tool for simulating crashes, version skew,
// and protocol abuse.
func startRawNode(t *testing.T, handle func(conn net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				handle(conn)
			}(conn)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String()
}

// TestNetRunnerMatchesPool pins the tentpole invariant at the runner
// layer: serve nodes across a TCP boundary reproduce the in-process pool
// bit for bit, and connections persist across calls on one runner.
func TestNetRunnerMatchesPool(t *testing.T) {
	reqs := testRequests(t, 4)
	want, err := (&PoolRunner{Workers: 2}).Run(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	nr := &NetRunner{Nodes: []string{startServeNode(t), startServeNode(t)}, ConnsPerNode: 2}
	defer nr.Close()
	got, err := nr.Run(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d diverges across the network boundary:\npool %+v\nnet  %+v", i, want[i], got[i])
		}
	}

	// Second round on the same runner: idle connections are reused and
	// streaming delivery stays prefix-ordered.
	next := 0
	err = nr.Stream(context.Background(), reqs, func(idx int, m testbed.Measurement) error {
		if idx != next {
			return fmt.Errorf("emitted %d, want %d", idx, next)
		}
		if m != want[idx] {
			return fmt.Errorf("round 2 point %d diverges", idx)
		}
		next++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if next != len(reqs) {
		t.Fatalf("round 2 emitted %d of %d", next, len(reqs))
	}
}

// TestNetRunnerRedispatchOnNodeDeath pins crash recovery: a node that
// dies mid-frame — accepts the request, never answers, drops the
// connection — must not fail the sweep; its shards are re-dispatched to
// the healthy node and the results stay byte-identical to the pool
// backend.
func TestNetRunnerRedispatchOnNodeDeath(t *testing.T) {
	reqs := testRequests(t, 4)
	want, err := (&PoolRunner{Workers: 2}).Run(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}

	var killed atomic.Int64
	gate := make(chan struct{})
	var opened sync.Once
	flaky := startRawNode(t, func(conn net.Conn) {
		if err := testbed.WriteFrame(conn, testbed.Hello()); err != nil {
			return
		}
		br := bufio.NewReader(conn)
		var b testbed.WireBatch
		if err := testbed.ReadBinaryFrame(br, &b); err == nil {
			killed.Add(1)
			opened.Do(func() { close(gate) })
		}
		// Die mid-shard: the dispatcher is left awaiting a response.
	})
	// The healthy node answers nothing until the flaky one holds a batch.
	nr := &NetRunner{Nodes: []string{flaky, startGatedServeNode(t, gate)}, ConnsPerNode: 1}
	defer nr.Close()

	got, err := nr.Run(context.Background(), reqs)
	if err != nil {
		t.Fatalf("fleet with one dying node must still complete: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d diverges after re-dispatch", i)
		}
	}
	if killed.Load() == 0 {
		t.Fatal("flaky node was never exercised; the test proved nothing")
	}
}

// TestNetRunnerQuarantinesNodeDyingAfterAnswers pins the retry budget
// against a node that answers one batch on every connection and then
// drops the connection with the next batch unanswered. Each death must
// count against the node although its connection answered first, so
// the node is quarantined and the sweep finishes elsewhere instead of
// bouncing batches back to it until one runs out of dispatch attempts.
// The dying node is the fleet's only member until the dispatcher
// quarantines it; only then does a healthy node join, which fixes the
// order of events.
func TestNetRunnerQuarantinesNodeDyingAfterAnswers(t *testing.T) {
	reqs := append(testRequests(t, 3), testRequests(t, 4)...)
	want, err := (&PoolRunner{Workers: 2}).Run(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}

	exec := testbed.NewExecutor(nil)
	var drops atomic.Int64
	dying := startRawNode(t, func(conn net.Conn) {
		if err := testbed.WriteFrame(conn, testbed.Hello()); err != nil {
			return
		}
		br := bufio.NewReader(conn)
		var b testbed.WireBatch
		if err := testbed.ReadBinaryFrame(br, &b); err != nil {
			return
		}
		res := testbed.WireBatchResult{ID: b.ID, Items: exec.DoBatch(context.Background(), b.Reqs)}
		if err := testbed.WriteBinaryFrame(conn, res); err != nil {
			return
		}
		if err := testbed.ReadBinaryFrame(br, &b); err == nil {
			drops.Add(1)
		}
		// Drop the connection with the second batch unanswered.
	})
	path, src := nodesFile(t, dying)
	nr := &NetRunner{Members: src, ConnsPerNode: 1, Batch: 1}
	defer nr.Close()
	if err := nr.init(); err != nil {
		t.Fatal(err)
	}
	nr.nodesMu.Lock()
	nd := nr.byAddr[dying]
	nr.nodesMu.Unlock()
	// The file names the healthy node from here on; the dispatcher sees
	// it once the quarantine triggers a reload.
	writeNodesFile(t, path, dying, startServeNode(t))
	joined := make(chan struct{})
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for nd.health.quarantinedFor(time.Now()) == 0 {
			select {
			case <-tick.C:
			case <-stop:
				return
			}
		}
		if err := src.Reload(); err != nil {
			t.Error(err)
		}
		close(joined)
	}()

	// Without the quarantine nothing joins; a bound on the run turns a
	// stalled sweep into an error instead of a hang.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got, err := nr.Run(ctx, reqs)
	if err != nil {
		t.Fatalf("fleet with a node dying after each answer must still complete: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d diverges after re-dispatch", i)
		}
	}
	select {
	case <-joined:
	default:
		t.Fatal("the dying node was never quarantined")
	}
	if d := drops.Load(); d < quarantineAfter {
		t.Fatalf("dying node dropped %d connections, want at least %d", d, quarantineAfter)
	}
}

// TestNetRunnerHandshakeMismatchRejected pins the version gate: a node
// built from a different protocol or physics version is rejected with a
// clear error — alone it fails the sweep, in a mixed fleet it is
// poisoned and routed around.
func TestNetRunnerHandshakeMismatchRejected(t *testing.T) {
	skew := startRawNode(t, func(conn net.Conn) {
		_ = testbed.WriteFrame(conn, testbed.WireHello{
			Protocol: testbed.ProtocolVersion + 1,
			Physics:  testbed.PhysicsVersion,
		})
	})
	reqs := testRequests(t, 2)

	alone := &NetRunner{Nodes: []string{skew}}
	defer alone.Close()
	_, err := alone.Run(context.Background(), reqs)
	if !errors.Is(err, testbed.ErrVersionMismatch) {
		t.Fatalf("mismatched fleet error = %v, want ErrVersionMismatch", err)
	}
	for _, want := range []string{skew, "protocol", "rejected"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("mismatch error missing %q: %v", want, err)
		}
	}

	mixed := &NetRunner{Nodes: []string{skew, startServeNode(t)}}
	defer mixed.Close()
	want, err := (&PoolRunner{Workers: 2}).Run(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mixed.Run(context.Background(), reqs)
	if err != nil {
		t.Fatalf("mixed fleet must route around the mismatched node: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mixed-fleet point %d diverges", i)
		}
	}
}

// TestNetPickNodeCountsInFlightDials pins the checkout load count: a
// node is busy from the moment pickNode chooses it, not once its dial
// and handshake return, so a second concurrent checkout does not pile
// onto a node whose first dial is still in flight. A failed checkout
// gives its count back.
func TestNetPickNodeCountsInFlightDials(t *testing.T) {
	release := make(chan struct{})
	accepted := make(chan string, 4)
	node := func(name string, gate <-chan struct{}) func(net.Conn) {
		return func(conn net.Conn) {
			accepted <- name
			if gate != nil {
				<-gate
			}
			if err := testbed.WriteFrame(conn, testbed.Hello()); err != nil {
				return
			}
			_, _ = io.Copy(io.Discard, conn) // idle until the dispatcher hangs up
		}
	}
	a := startRawNode(t, node("A", release))
	b := startRawNode(t, node("B", nil))
	nr := &NetRunner{Nodes: []string{a, b}}
	defer nr.Close()
	if err := nr.init(); err != nil {
		t.Fatal(err)
	}
	nr.nodesMu.Lock()
	na, nb := nr.byAddr[a], nr.byAddr[b]
	nr.nodesMu.Unlock()
	// A is estimated 1.5x faster than B, so A wins a checkout while both
	// are idle, and only A's counted in-flight dial sends the next to B.
	na.observe(300, time.Second)
	nb.observe(200, time.Second)

	type checkout struct {
		tr  batchTransport
		err error
	}
	acquire := func() <-chan checkout {
		ch := make(chan checkout, 1)
		go func() {
			tr, err := netSource{nr}.acquire(context.Background())
			ch <- checkout{tr, err}
		}()
		return ch
	}
	dialed := func() string {
		select {
		case name := <-accepted:
			return name
		case <-time.After(10 * time.Second):
			t.Fatal("no node was dialed")
			return ""
		}
	}
	first := acquire()
	if name := dialed(); name != "A" {
		t.Fatalf("first checkout dialed %s, want the faster node A", name)
	}
	// A's hello is held back, so its first dial is still in flight.
	second := acquire()
	name := dialed()
	close(release)
	if name != "B" {
		t.Fatalf("second checkout dialed %s while A's first dial was in flight, want B", name)
	}
	for _, c := range []struct {
		ch   <-chan checkout
		want *netNode
	}{{first, na}, {second, nb}} {
		got := <-c.ch
		if got.err != nil {
			t.Fatal(got.err)
		}
		tr := got.tr.(*netTransport)
		if tr.node != c.want {
			t.Fatalf("checkout landed on %s, want %s", tr.node.addr, c.want.addr)
		}
		if n := c.want.busy.Load(); n != 1 {
			t.Fatalf("node %s busy = %d with one checkout, want 1", c.want.addr, n)
		}
		tr.abort()
		if n := c.want.busy.Load(); n != 0 {
			t.Fatalf("node %s busy = %d after its transport retired, want 0", c.want.addr, n)
		}
	}

	// A checkout whose dial fails gives its count back.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close() // connection refused from here on
	down := &NetRunner{Nodes: []string{dead}}
	defer down.Close()
	if err := down.init(); err != nil {
		t.Fatal(err)
	}
	if _, err := (netSource{down}).acquire(context.Background()); err == nil {
		t.Fatal("checkout from a refused node succeeded")
	}
	down.nodesMu.Lock()
	nd := down.byAddr[dead]
	down.nodesMu.Unlock()
	if n := nd.busy.Load(); n != 0 {
		t.Fatalf("failed checkout left busy = %d, want 0", n)
	}
}

// TestNetRunnerCancelMidShard pins mid-shard cancelation: canceling the
// context while shards are awaiting node responses must close the
// in-flight connections — observed from the node side — and return
// promptly with context.Canceled, never hang on a socket.
func TestNetRunnerCancelMidShard(t *testing.T) {
	reqs := testRequests(t, 2)
	unblocked := make(chan struct{}, len(reqs))
	slow := startRawNode(t, func(conn net.Conn) {
		if err := testbed.WriteFrame(conn, testbed.Hello()); err != nil {
			return
		}
		br := bufio.NewReader(conn)
		// Simulate a node stuck in a long measurement: accept batches,
		// never answer, block until the dispatcher closes the connection.
		got := false
		for {
			var b testbed.WireBatch
			if err := testbed.ReadBinaryFrame(br, &b); err != nil {
				break
			}
			got = true
		}
		if got {
			unblocked <- struct{}{}
		}
	})
	nr := &NetRunner{Nodes: []string{slow}, ConnsPerNode: 2}
	defer nr.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { _, err := nr.Run(ctx, reqs); done <- err }()
	time.Sleep(200 * time.Millisecond)
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Fatalf("cancelation took %v", elapsed)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sweep hung after mid-shard cancelation")
	}
	select {
	case <-unblocked:
		// The dispatcher closed its connection; the node saw it.
	case <-time.After(5 * time.Second):
		t.Fatal("cancelation did not close the in-flight connection")
	}
}

// TestNetRunnerCancelDuringHandshake pins a cancelable handshake: a
// node that accepts connections but never writes its hello must not
// hold a canceled sweep for the handshake timeout.
func TestNetRunnerCancelDuringHandshake(t *testing.T) {
	silent := startRawNode(t, func(conn net.Conn) {
		_, _ = io.Copy(io.Discard, conn) // never says hello
	})
	nr := &NetRunner{Nodes: []string{silent}}
	defer nr.Close()

	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(100*time.Millisecond, cancel)
	start := time.Now()
	_, err := nr.Run(ctx, testRequests(t, 1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("canceled sweep returned after %v, want under 1s", elapsed)
	}
}

// TestNetRunnerRecoversAfterRequestError checks that a request-level
// failure reported by a healthy node surfaces once — deterministic
// rejections are never re-dispatched — and the runner keeps working.
func TestNetRunnerRecoversAfterRequestError(t *testing.T) {
	good := testRequests(t, 2)
	bad := make([]testbed.Request, len(good))
	copy(bad, good)
	bad[1].Trials = 0
	nr := &NetRunner{Nodes: []string{startServeNode(t)}}
	defer nr.Close()

	if _, err := nr.Run(context.Background(), bad); err == nil || !strings.Contains(err.Error(), "trial count") {
		t.Fatalf("bad request error = %v", err)
	}
	if _, err := nr.Run(context.Background(), good); err != nil {
		t.Fatalf("runner did not recover: %v", err)
	}
}

// TestNetRunnerRejectsUnserializable checks the wire-safety gate shared
// with the proc backend.
func TestNetRunnerRejectsUnserializable(t *testing.T) {
	reqs := testRequests(t, 2)
	reqs[1].Scenario.EdgeLink.Loss = pathLossStub{}
	nr := &NetRunner{Nodes: []string{startServeNode(t)}}
	defer nr.Close()
	_, err := nr.Run(context.Background(), reqs)
	if !errors.Is(err, testbed.ErrRequest) || !strings.Contains(err.Error(), "point 1") {
		t.Fatalf("unserializable request error = %v", err)
	}
}

// TestNetRunnerConfigErrors covers the fail-fast configuration paths: a
// fleet without nodes, a fleet that is entirely unreachable, and use
// after Close.
func TestNetRunnerConfigErrors(t *testing.T) {
	reqs := testRequests(t, 2)[:1]

	empty := &NetRunner{}
	if _, err := empty.Run(context.Background(), reqs); err == nil || !strings.Contains(err.Error(), "node address") {
		t.Fatalf("empty fleet error = %v", err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close() // connection refused from here on
	down := &NetRunner{Nodes: []string{dead}}
	defer down.Close()
	if _, err := down.Run(context.Background(), reqs); err == nil || !strings.Contains(err.Error(), "dispatch attempts") {
		t.Fatalf("unreachable fleet error = %v", err)
	}

	nr := &NetRunner{Nodes: []string{startServeNode(t)}}
	if _, err := nr.Run(context.Background(), reqs); err != nil {
		t.Fatal(err)
	}
	if err := nr.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := nr.Run(context.Background(), reqs); !errors.Is(err, ErrRunnerClosed) {
		t.Fatalf("run after Close = %v, want ErrRunnerClosed", err)
	}
}

// TestSourceHealthQuarantineAndBackoff pins the shared lifecycle
// policy: quarantine starts at the threshold, backs off exponentially to
// the cap, heals on success, and poison is permanent with the first
// reason sticking.
func TestSourceHealthQuarantineAndBackoff(t *testing.T) {
	var h sourceHealth
	now := time.Now()
	for i := 0; i < quarantineAfter-1; i++ {
		h.failure(now, nil)
	}
	if w := h.quarantinedFor(now); w != 0 {
		t.Fatalf("quarantined after %d failures: %v", quarantineAfter-1, w)
	}
	h.failure(now, nil)
	first := h.quarantinedFor(now)
	if first <= 0 || first > backoffBase {
		t.Fatalf("first quarantine window = %v, want (0, %v]", first, backoffBase)
	}
	h.failure(now, nil)
	if second := h.quarantinedFor(now); second <= first {
		t.Fatalf("backoff did not grow: %v then %v", first, second)
	}
	for i := 0; i < 40; i++ {
		h.failure(now, nil)
	}
	if w := h.quarantinedFor(now); w > backoffMax {
		t.Fatalf("backoff exceeded cap: %v > %v", w, backoffMax)
	}
	if w := h.quarantinedFor(now.Add(2 * backoffMax)); w != 0 {
		t.Fatalf("quarantine did not expire: %v", w)
	}
	h.success()
	h.failure(now, nil)
	if w := h.quarantinedFor(now); w != 0 {
		t.Fatal("success did not reset the failure streak")
	}
	h.failure(now, nil)
	later := now.Add(backoffMax + time.Second)
	h.failure(later, nil)
	if w := h.quarantinedFor(later); w != 0 {
		t.Fatal("a failure after a quiet spell of backoffMax did not start a new streak")
	}
	h.failure(later, nil)
	h.failure(later, nil)
	if w := h.quarantinedFor(later); w <= 0 {
		t.Fatal("the new streak did not quarantine at its threshold")
	}

	h.poisonWith(errors.New("first"))
	h.poisonWith(errors.New("second"))
	if err := h.poisoned(); err == nil || err.Error() != "first" {
		t.Fatalf("poison reason = %v, want the first to stick", err)
	}
}
