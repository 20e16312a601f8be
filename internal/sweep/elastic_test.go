package sweep

// Elastic-fleet chaos tests: membership changing under a live sweep —
// joiners admitted mid-run, leavers drained on SIGHUP, queued batches
// stolen off a slow node — each pinned against the same invariant as
// every other fault test in this package: the output bytes never move.

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/sweep/sweeptest"
	"repro/internal/testbed"
)

// slowProxy fronts a real serve node with a frame-delaying chaos proxy,
// making the node's answers slow without making them wrong.
func slowProxy(t *testing.T, delay time.Duration) *sweeptest.ChaosProxy {
	t.Helper()
	proxy, err := sweeptest.NewChaosProxy(startServeNode(t), sweeptest.ChaosConfig{FrameDelay: delay})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	return proxy
}

// answerListener wraps a serve node's listener and closes answered once
// any accepted connection makes its second write: a connection's first
// write is its hello, its second the first batch answer.
type answerListener struct {
	net.Listener
	answered chan struct{}
	once     sync.Once
}

func (l *answerListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &answerConn{Conn: c, l: l}, nil
}

// answerConn counts its writes; only the connection's serve loop writes.
type answerConn struct {
	net.Conn
	l      *answerListener
	writes int
}

func (c *answerConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if c.writes++; c.writes == 2 {
		c.l.once.Do(func() { close(c.l.answered) })
	}
	return n, err
}

// nodesFile seeds a membership file and opens it as a fleet source.
func nodesFile(t *testing.T, addrs ...string) (string, *fleet.FileSource) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "nodes")
	writeNodesFile(t, path, addrs...)
	src, err := fleet.NewFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, src
}

func writeNodesFile(t *testing.T, path string, addrs ...string) {
	t.Helper()
	body := "# fleet membership\n"
	for _, a := range addrs {
		body += a + "\n"
	}
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestNetRunnerElasticJoinMidSweep pins mid-run admission: a sweep
// starts on a single slow node, a second node joins through a nodes-file
// reload while batches are still queued, the joiner answers real work,
// and the output stays byte-identical to the pool backend.
func TestNetRunnerElasticJoinMidSweep(t *testing.T) {
	base := testRequests(t, 4)
	// 24 batches at Batch:1, three times the slow node's 4×2 window, so
	// work is still queued when the joiner arrives.
	var reqs []testbed.Request
	for i := 0; i < 4; i++ {
		reqs = append(reqs, base...)
	}
	want, err := (&PoolRunner{Workers: 2}).Run(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}

	slow := slowProxy(t, 15*time.Millisecond)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	joinLn := &answerListener{Listener: ln, answered: make(chan struct{})}
	joiner := serveOn(t, joinLn)

	path, src := nodesFile(t, slow.Addr())
	nr := &NetRunner{Members: src, Batch: 1, Pipeline: 2}
	defer nr.Close()

	joined := false
	next := 0
	err = nr.Stream(context.Background(), reqs, func(idx int, m testbed.Measurement) error {
		if idx != next {
			return fmt.Errorf("emitted %d, want %d", idx, next)
		}
		if m != want[idx] {
			return fmt.Errorf("point %d diverged after elastic join", idx)
		}
		next++
		if !joined {
			// First delivery: most of the sweep is still queued on the
			// slow node. Grow the fleet under it.
			joined = true
			writeNodesFile(t, path, slow.Addr(), joiner)
			if err := src.Reload(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if next != len(reqs) {
		t.Fatalf("delivered %d of %d", next, len(reqs))
	}
	select {
	case <-joinLn.answered:
	default:
		t.Fatal("mid-sweep joiner never answered a batch")
	}
}

// TestNetRunnerSIGHUPDrainsLeaver pins the operator workflow end to end:
// membership lives in a file watched via SIGHUP, and shrinking the fleet
// mid-sweep — the slow node is removed while it still holds in-flight
// batches — drains the leaver without losing, duplicating, or reordering
// a single result.
func TestNetRunnerSIGHUPDrainsLeaver(t *testing.T) {
	reqs := testRequests(t, 4)
	want, err := (&PoolRunner{Workers: 2}).Run(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}

	slow := slowProxy(t, 15*time.Millisecond)
	fast := startServeNode(t)

	path, src := nodesFile(t, slow.Addr(), fast)
	stop := fleet.WatchSIGHUP(src, nil)
	defer stop()

	nr := &NetRunner{Members: src, Batch: 1, Pipeline: 2}
	defer nr.Close()

	_, gen0 := src.Snapshot()
	signaled := false
	next := 0
	err = nr.Stream(context.Background(), reqs, func(idx int, m testbed.Measurement) error {
		if m != want[idx] {
			return fmt.Errorf("point %d diverged across SIGHUP membership change", idx)
		}
		next++
		if !signaled {
			signaled = true
			writeNodesFile(t, path, fast)
			if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
				return err
			}
			// Wait for the asynchronous reload so the shrink really lands
			// mid-sweep, not after it.
			for i := 0; ; i++ {
				if _, gen := src.Snapshot(); gen != gen0 {
					break
				}
				if i > 5000 {
					return fmt.Errorf("SIGHUP reload never landed")
				}
				time.Sleep(time.Millisecond)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if next != len(reqs) {
		t.Fatalf("delivered %d of %d", next, len(reqs))
	}
	if addrs, _ := src.Snapshot(); len(addrs) != 1 || addrs[0] != fast {
		t.Fatalf("membership after SIGHUP = %v", addrs)
	}
}

// TestNetRunnerStealsFromSlowNode pins the work-stealing path under real
// asymmetry. The slow node measures but answers nothing until cleanup,
// so the sweep can finish only if the idle fast node steals every batch
// the slow one holds; the stolen work must change nothing about the
// output.
func TestNetRunnerStealsFromSlowNode(t *testing.T) {
	base := testRequests(t, 4)
	reqs := append(append([]testbed.Request{}, base...), base...) // 12 batches at Batch:1
	want, err := (&PoolRunner{Workers: 2}).Run(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}

	// The fast node is held too until the slow node has answered a
	// batch into its proxy: its window fills, the slow node is dealt
	// work, and a sweep that finishes has therefore stolen. The deadline
	// turns a missing steal into a failure instead of a hang.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	slowLn := &answerListener{Listener: ln, answered: make(chan struct{})}
	slowGate, fastGate := make(chan struct{}), make(chan struct{})
	slow := gateNode(t, serveOn(t, slowLn), slowGate)
	t.Cleanup(func() { close(slowGate) })
	nr := &NetRunner{
		Nodes:        []string{slow, startGatedServeNode(t, fastGate)},
		ConnsPerNode: 1,
		Batch:        1,
		Pipeline:     4,
		StealAfter:   2 * time.Millisecond,
	}
	t.Cleanup(func() { nr.Close() })
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	go func() {
		select {
		case <-slowLn.answered:
			close(fastGate)
		case <-ctx.Done():
		}
	}()
	got, err := nr.Run(ctx, reqs)
	if err != nil {
		t.Fatalf("a sweep whose slow node never answers must finish by stealing: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d diverged from pool", i)
		}
	}
	if nr.Steals() == 0 {
		t.Fatal("idle fast node never stole from the slow node")
	}
}

// TestNetRunnerStandbyUntilFirstJoin pins the empty-elastic-fleet start:
// a dispatcher opened on a membership feed with zero nodes parks in
// standby instead of failing, and completes normally once the first
// node arrives.
func TestNetRunnerStandbyUntilFirstJoin(t *testing.T) {
	reqs := testRequests(t, 4)
	want, err := (&PoolRunner{Workers: 2}).Run(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}

	node := startServeNode(t)
	path, src := nodesFile(t) // legal: an empty fleet, for now
	nr := &NetRunner{Members: src, Batch: 2}
	defer nr.Close()

	go func() {
		time.Sleep(50 * time.Millisecond)
		writeNodesFile(t, path, node)
		_ = src.Reload()
	}()

	got, err := nr.Run(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d diverged after standby start", i)
		}
	}
}

// TestNetNodeWeightPrecedence pins the capacity model: a node this
// dispatcher has not seen answer a batch has no estimate, observed
// batches set an EWMA of cells/s, and degenerate samples never poison
// it.
func TestNetNodeWeightPrecedence(t *testing.T) {
	nd := &netNode{}
	if _, known := nd.estimate(); known {
		t.Fatal("unobserved node claims a known estimate")
	}
	nd.observe(100, 500*time.Millisecond) // 200 cells/s, first sample sticks
	if w, known := nd.estimate(); !known || w != 200 {
		t.Fatalf("first observed estimate = %v, %v; want 200, true", w, known)
	}
	nd.observe(100, time.Second) // EWMA: 0.7*200 + 0.3*100
	if w, _ := nd.estimate(); w != 170 {
		t.Fatalf("EWMA estimate = %v, want 170", w)
	}
	nd.observe(0, time.Second)
	nd.observe(10, 0)
	if w, _ := nd.estimate(); w != 170 {
		t.Fatalf("degenerate samples moved the estimate to %v", w)
	}
}

// TestNetPickNodeBorrowsForUnobservedNode pins the borrow rule of
// weighted checkout without sockets: a node not yet observed scores with
// the largest known estimate, so it wins against a busier observed
// node; once observed slower, it loses to an idle faster one.
func TestNetPickNodeBorrowsForUnobservedNode(t *testing.T) {
	r := &NetRunner{Nodes: []string{"a:1", "b:2"}}
	if err := r.init(); err != nil {
		t.Fatal(err)
	}
	a, b := r.byAddr["a:1"], r.byAddr["b:2"]
	pick := func() string {
		t.Helper()
		nd, _, err := r.pickNode()
		if err != nil || nd == nil {
			t.Fatalf("pickNode = %v, %v", nd, err)
		}
		return nd.addr
	}
	a.observe(300, time.Second)
	a.busy.Store(1)
	if got := pick(); got != b.addr {
		t.Fatalf("picked %s; want the unobserved node %s", got, b.addr)
	}
	b.observe(30, time.Second)
	// Several picks, so a tie broken by the rotating start cannot pass.
	for i := 0; i < 4; i++ {
		a.busy.Store(0)
		b.busy.Store(0)
		if got := pick(); got != a.addr {
			t.Fatalf("pick %d = %s; want the faster node %s", i, got, a.addr)
		}
	}
}
