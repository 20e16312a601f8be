package sweep

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/testbed"
)

// Defaults for the network backend.
const (
	// netConnsPerNode is the default number of dispatch sessions per
	// node in each Stream call. A serve node answers one batch at a time
	// per connection, and the dispatcher cannot see a remote node's core
	// count, so a small fixed fan-out per node keeps several batches in
	// flight without assuming anything about the fleet. It is a session
	// count, not a connection cap: weighted checkout may put more of the
	// sessions on a fast node, each with its own connection.
	netConnsPerNode = 4
	// netDialTimeout bounds a TCP dial, and separately the hello read of
	// every worker link, pipe or socket (openLink).
	netDialTimeout = 5 * time.Second
	// netKeepAlive is the TCP keepalive period on dispatcher
	// connections, so a silently vanished node (power loss, network
	// partition) surfaces as a read error instead of a wedged socket.
	netKeepAlive = 30 * time.Second
	// netStandbyPoll bounds how long an empty elastic fleet waits
	// between membership checks when no change notification arrives.
	netStandbyPoll = 250 * time.Millisecond
)

// MemberSource is a live fleet membership feed: a generation-stamped
// snapshot of node addresses plus a channel that closes once membership
// moves past that generation (nil when membership is frozen). It is
// structurally identical to fleet.Source — defined here too so the
// dispatch engine does not depend on the fleet package; any fleet.Source
// satisfies it directly.
type MemberSource interface {
	Snapshot() (addrs []string, gen uint64)
	Changed(gen uint64) <-chan struct{}
}

// staticMembers freezes an address list as a MemberSource (the -nodes
// fleet).
type staticMembers []string

func (s staticMembers) Snapshot() ([]string, uint64) {
	out := make([]string, len(s))
	copy(out, s)
	return out, 1
}

func (s staticMembers) Changed(uint64) <-chan struct{} { return nil }

// NetRunner executes requests across a fleet of serve nodes — processes
// running `xrperf serve` (testbed.ServeListener) — over TCP, speaking
// the same batched frame protocol the proc backend speaks over pipes.
// Connections are dialed lazily, verified against the node's handshake
// (protocol + physics version, read within netDialTimeout and abandoned
// at once on cancelation; a mismatched node is rejected with a clear
// error and never used), kept alive across Run/Stream calls (Close
// reaps them), and replaced transparently when they break. Requests ride
// in binary multi-request WireBatch frames with up to Pipeline batches
// outstanding per connection.
//
// Failure semantics extend the proc backend's: a node that dies
// mid-batch — crash, disconnect, kill — has its unanswered batches
// re-dispatched to a healthy node, and a node that keeps failing is
// quarantined with exponential backoff (sourceHealth) so the fleet
// routes around it and probes it again later. A connection death counts
// against its node even when the connection answered batches first;
// the streak ends only after a quiet spell with no deaths. Requests
// must be wire-safe (Request.WireSafe); measurements depend only on
// request content and the deterministic hidden physics, so any healthy
// node produces the same bytes and re-dispatch never changes the output.
type NetRunner struct {
	// Nodes lists the serve-node addresses (host:port). Required unless
	// Members is set.
	Nodes []string
	// Members, when set, is a live membership feed (any fleet.Source):
	// nodes that join mid-run are admitted and dialed, nodes that leave
	// are drained — their in-flight batches finish, their idle
	// connections close, and no new work is dealt to them. Overrides
	// Nodes.
	Members MemberSource
	// ConnsPerNode sets the dispatch sessions per node for each Stream
	// call (nodes × ConnsPerNode in all); 0 or negative means
	// netConnsPerNode. It does not cap connections per node: weighted
	// checkout may put more sessions, and so connections, on one node.
	ConnsPerNode int
	// Batch caps requests per frame; 0 means DefaultBatch. Small grids
	// use smaller batches automatically to keep every connection busy.
	Batch int
	// Pipeline is the window of outstanding batches per connection; 0
	// means DefaultPipeline.
	Pipeline int
	// StealAfter is how long a dispatched batch may sit unanswered
	// before an idle lane re-dispatches it to another node; 0 or
	// negative means the dispatcher's default (50ms). Output bytes are
	// identical whatever its value; only completion time differs.
	StealAfter time.Duration

	mu       sync.Mutex
	started  bool
	startErr error
	closed   bool
	conns    int
	rr       atomic.Int64

	// nodesMu guards the live membership view. byAddr keeps every node
	// ever seen, so a leaver that rejoins keeps its health history
	// (quarantine, poison) instead of getting a clean slate.
	nodesMu sync.Mutex
	nodes   []*netNode // current members, feed order
	byAddr  map[string]*netNode
	memGen  uint64

	steals atomic.Int64

	liveMu     sync.Mutex
	liveClosed bool
	live       map[*netTransport]struct{}
}

// netNode is the dispatcher's view of one serve node: its address, its
// health, its capacity estimate, and a stack of idle connections ready
// for the next batch.
type netNode struct {
	addr   string
	health sourceHealth
	// left marks a node the membership feed no longer lists: no new
	// checkouts, and connections returning from flight are destroyed
	// instead of idled.
	left atomic.Bool
	// busy counts checkouts from the moment pickNode chooses the node
	// until the transport retires (or the acquire fails) — the load half
	// of the weighted-checkout score. Counting at the pick, not after
	// the dial returns, keeps concurrent checkouts from piling onto a
	// node whose first dial is still in flight.
	busy atomic.Int64

	// wmu guards the capacity estimate: an EWMA of cells/s over the
	// batch latencies this dispatcher observed itself.
	wmu     sync.Mutex
	ewmaCPS float64

	mu   sync.Mutex
	idle []*netTransport
}

// estimate returns the node's capacity estimate in cells/s and reports
// whether it is known: a node this dispatcher has not yet seen answer a
// batch has none.
func (nd *netNode) estimate() (float64, bool) {
	nd.wmu.Lock()
	defer nd.wmu.Unlock()
	return nd.ewmaCPS, nd.ewmaCPS > 0
}

// observe folds one answered batch into the node's observed throughput.
func (nd *netNode) observe(cells int, elapsed time.Duration) {
	if cells <= 0 || elapsed <= 0 {
		return
	}
	sample := float64(cells) / elapsed.Seconds()
	nd.wmu.Lock()
	if nd.ewmaCPS == 0 {
		nd.ewmaCPS = sample
	} else {
		nd.ewmaCPS = 0.7*nd.ewmaCPS + 0.3*sample
	}
	nd.wmu.Unlock()
}

// init resolves the configuration once.
func (r *NetRunner) init() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrRunnerClosed
	}
	if r.started {
		return r.startErr
	}
	r.started = true
	if r.Members == nil {
		if len(r.Nodes) == 0 {
			r.startErr = errors.New("sweep: net runner needs at least one node address")
			return r.startErr
		}
		r.Members = staticMembers(r.Nodes)
	}
	r.byAddr = make(map[string]*netNode)
	r.conns = r.ConnsPerNode
	if r.conns <= 0 {
		r.conns = netConnsPerNode
	}
	r.live = make(map[*netTransport]struct{})
	r.syncMembers()
	return nil
}

// syncMembers reconciles the node view with the membership feed: new
// addresses get nodes (and jitter seeds), returning addresses get their
// old node back with its health history, and dropped addresses are
// marked left and their idle connections destroyed. In-flight batches to
// leavers finish normally — draining, not severing — because their
// results are as good as anyone's.
func (r *NetRunner) syncMembers() {
	addrs, gen := r.Members.Snapshot()
	r.nodesMu.Lock()
	if gen == r.memGen && r.memGen != 0 {
		r.nodesMu.Unlock()
		return
	}
	r.memGen = gen
	want := make(map[string]bool, len(addrs))
	nodes := make([]*netNode, 0, len(addrs))
	for _, a := range addrs {
		want[a] = true
		nd := r.byAddr[a]
		if nd == nil {
			nd = &netNode{addr: a}
			nd.health.seedJitter(a)
			r.byAddr[a] = nd
		}
		nd.left.Store(false)
		nodes = append(nodes, nd)
	}
	var evict []*netTransport
	for a, nd := range r.byAddr {
		if !want[a] && !nd.left.Load() {
			nd.left.Store(true)
			nd.mu.Lock()
			evict = append(evict, nd.idle...)
			nd.idle = nil
			nd.mu.Unlock()
		}
	}
	r.nodes = nodes
	r.nodesMu.Unlock()
	for _, t := range evict {
		t.retire()
	}
}

// memberView snapshots the current node list.
func (r *NetRunner) memberView() []*netNode {
	r.nodesMu.Lock()
	defer r.nodesMu.Unlock()
	out := make([]*netNode, len(r.nodes))
	copy(out, r.nodes)
	return out
}

// Steals reports how many batches have been re-dispatched off slow
// nodes by work stealing since the runner started.
func (r *NetRunner) Steals() int64 { return r.steals.Load() }

// Run implements Runner.
func (r *NetRunner) Run(ctx context.Context, reqs []testbed.Request) ([]testbed.Measurement, error) {
	return collectStream(ctx, len(reqs), func(ctx context.Context, emit func(int, testbed.Measurement) error) error {
		return r.Stream(ctx, reqs, emit)
	})
}

// Stream implements Runner: batches the requests across the fleet with
// the same ordered-merge and lowest-index error semantics as every
// other backend (runBatches mirrors the in-process engine exactly).
func (r *NetRunner) Stream(ctx context.Context, reqs []testbed.Request, emit func(idx int, m testbed.Measurement) error) error {
	n := len(reqs)
	if n == 0 {
		return ctx.Err()
	}
	for i, rq := range reqs {
		if err := rq.WireSafe(); err != nil {
			return fmt.Errorf("sweep: point %d: %w", i, err)
		}
	}
	if err := r.init(); err != nil {
		return err
	}
	members := r.memberView()
	elastic := r.Members.Changed(0) != nil // a frozen feed returns nil
	attempts := 2 * len(members)
	if elastic && attempts < 8 {
		// An elastic fleet may be small (or empty) right now and grow;
		// give each batch headroom to outlive a few joins and failures.
		attempts = 8
	}
	sessions := len(members) * r.conns
	if sessions == 0 {
		// An empty elastic fleet: park lanes in standby; the watcher
		// spawns more as members register.
		sessions = r.conns
	}
	cfg := batchConfig{
		sessions: sessions,
		batch:    r.Batch,
		depth:    r.Pipeline,
		budget:   attempts,
		source:   netSource{r},
		givingUp: func(j *batchJob) error {
			last := j.lastErr
			if last == nil {
				last = errors.New("every node quarantined after repeated failures")
			}
			return fmt.Errorf("sweep: shard %d failed after %d dispatch attempts across %d node(s): %w",
				j.off, attempts, len(r.memberView()), last)
		},
		stealAfter: r.StealAfter,
		onSteal:    func() { r.steals.Add(1) },
	}
	if elastic {
		// Follow the membership feed for the sweep's duration: when the
		// fleet grows, give the joiners sessions of their own (sessions
		// never shrink — a lane whose node left simply checks out a
		// different node's connection next time).
		cfg.watch = func(stop <-chan struct{}, spawn func(n int)) {
			have := sessions
			for {
				addrs, gen := r.Members.Snapshot()
				r.syncMembers()
				if want := len(addrs) * r.conns; want > have {
					spawn(want - have)
					have = want
				}
				ch := r.Members.Changed(gen)
				if ch == nil {
					return
				}
				select {
				case <-stop:
					return
				case <-ch:
				}
			}
		}
	}
	return runBatches(ctx, reqs, cfg, emit)
}

// netSource checks fleet connections out for the batch dispatcher.
type netSource struct{ r *NetRunner }

// acquire picks a usable node and pops or dials a connection to it. A
// fully poisoned fleet is terminal (every node rejected the handshake);
// a fully quarantined one waits out the soonest release and consumes an
// attempt; an empty elastic fleet stands by for members without
// consuming anything; everything else — dial failures, broken
// handshakes, a poison discovered on this very dial — consumes an
// attempt and lets the dispatcher route the batch elsewhere.
func (s netSource) acquire(cctx context.Context) (batchTransport, error) {
	r := s.r
	if err := cctx.Err(); err != nil {
		return nil, &terminalError{err: err}
	}
	node, wait, err := r.pickNode()
	if err != nil {
		return nil, &terminalError{err: err, needsIdx: true}
	}
	if node == nil {
		// A membership change can end the wait early in either case: a
		// joiner is more useful than a quarantine release, and on a
		// frozen feed Changed is nil, which never fires in a select.
		_, gen := r.Members.Snapshot()
		changed := r.Members.Changed(gen)
		if wait < 0 {
			// The elastic fleet is empty right now: stand by for members
			// without burning the batch's dispatch attempts.
			select {
			case <-changed:
			case <-time.After(netStandbyPoll):
			case <-cctx.Done():
				return nil, &terminalError{err: cctx.Err()}
			}
			return nil, errStandby
		}
		// Every node is cooling off; wait out the soonest quarantine
		// (costing one attempt) instead of failing a recoverable fleet.
		select {
		case <-time.After(wait):
			return nil, errAllCooling
		case <-changed:
			return nil, errStandby
		case <-cctx.Done():
			return nil, &terminalError{err: cctx.Err()}
		}
	}
	t, err := node.acquire(cctx, r)
	if err != nil {
		node.busy.Add(-1)
		if cctx.Err() != nil {
			return nil, &terminalError{err: cctx.Err()}
		}
		if retryable(err) {
			//xrlint:allow determinism -- quarantine backoff clock for node health, never measurement data
			node.health.failure(time.Now(), err)
		}
		return nil, err
	}
	return t, nil
}

// pickNode returns the best usable node by weighted checkout — lowest
// (busy+1)/weight, ties broken in rotating order — so a node estimated
// twice as fast carries roughly twice the in-flight batches. It syncs
// the membership feed first, which is how joiners enter and leavers
// exit the dispatch path mid-run. With every node quarantined it
// returns (nil, soonest release, nil); with no members at all (an
// elastic fleet between nodes) it returns (nil, -1, nil); with every
// node poisoned it returns the poison error (the first node's reason
// wrapped, so errors.Is sees through to e.g. ErrVersionMismatch). The
// chosen node's busy count is already raised; the caller owns undoing
// it when the checkout fails.
func (r *NetRunner) pickNode() (*netNode, time.Duration, error) {
	r.syncMembers()
	nodes := r.memberView()
	if len(nodes) == 0 {
		return nil, -1, nil
	}
	now := time.Now() //xrlint:allow determinism -- quarantine-release comparison clock, never measurement data
	start := int(r.rr.Add(1))
	soonest := time.Duration(-1)
	var poisons []error
	// Two passes: collect the usable nodes and the largest known capacity
	// estimate first, so a node nothing is known about yet — one that has
	// not answered this dispatcher a batch — borrows that estimate
	// instead of the know-nothing default of 1. Without the optimism a
	// fresh node could never win a checkout against established nodes
	// observed at hundreds of cells/s, and would never be explored at all.
	type candidate struct {
		nd    *netNode
		w     float64
		known bool
	}
	cands := make([]candidate, 0, len(nodes))
	maxKnown := 1.0
	for k := 0; k < len(nodes); k++ {
		nd := nodes[(start+k)%len(nodes)]
		if err := nd.health.poisoned(); err != nil {
			poisons = append(poisons, err)
			continue
		}
		if wait := nd.health.quarantinedFor(now); wait > 0 {
			if soonest < 0 || wait < soonest {
				soonest = wait
			}
			continue
		}
		w, known := nd.estimate()
		if known && w > maxKnown {
			maxKnown = w
		}
		cands = append(cands, candidate{nd, w, known})
	}
	var best *netNode
	var bestScore float64
	for _, c := range cands {
		w := c.w
		if !c.known {
			w = maxKnown
		}
		score := float64(c.nd.busy.Load()+1) / w
		if best == nil || score < bestScore {
			best, bestScore = c.nd, score
		}
	}
	if best != nil {
		best.busy.Add(1)
		return best, 0, nil
	}
	if len(poisons) == len(nodes) {
		err := fmt.Errorf("every node rejected: %w", poisons[0])
		for _, p := range poisons[1:] {
			err = fmt.Errorf("%w; %v", err, p)
		}
		return nil, 0, err
	}
	if soonest >= 0 {
		return nil, soonest, nil
	}
	// Poisoned nodes plus none quarantined can only mean a mixed fleet
	// where the healthy nodes were consumed by the loop above — cannot
	// happen, but fail loudly rather than spin.
	return nil, 0, errors.New("no usable node")
}

// acquire pops an idle connection or dials a fresh one.
func (nd *netNode) acquire(ctx context.Context, r *NetRunner) (*netTransport, error) {
	nd.mu.Lock()
	if k := len(nd.idle); k > 0 {
		t := nd.idle[k-1]
		nd.idle = nd.idle[:k-1]
		nd.mu.Unlock()
		return t, nil
	}
	nd.mu.Unlock()
	return r.dialNode(ctx, nd)
}

// dialNode opens, keepalives, and handshakes one connection to a node.
// Transport failures are retryable worker failures; a version mismatch
// poisons the node permanently and surfaces as a non-retryable error.
func (r *NetRunner) dialNode(ctx context.Context, nd *netNode) (*netTransport, error) {
	dctx, cancel := context.WithTimeout(ctx, netDialTimeout)
	defer cancel()
	d := net.Dialer{KeepAlive: netKeepAlive}
	conn, err := d.DialContext(dctx, "tcp", nd.addr)
	if err != nil {
		return nil, &workerFailure{fmt.Errorf("dial node %s: %w", nd.addr, err)}
	}
	l, err := openLink(ctx, "node "+nd.addr, conn, nil, netDialTimeout)
	if err != nil {
		if errors.Is(err, testbed.ErrVersionMismatch) {
			nd.health.poisonWith(err)
		}
		return nil, err
	}
	t := &netTransport{link: l, r: r, node: nd}
	r.liveMu.Lock()
	if r.liveClosed {
		r.liveMu.Unlock()
		t.destroy()
		return nil, ErrRunnerClosed
	}
	r.live[t] = struct{}{}
	r.liveMu.Unlock()
	return t, nil
}

// Close closes every connection — idle and in-flight — and marks the
// runner unusable. Call it after all Run/Stream calls have returned.
func (r *NetRunner) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	if !r.started || r.startErr != nil {
		return nil
	}
	r.liveMu.Lock()
	r.liveClosed = true
	for t := range r.live {
		t.destroy()
	}
	r.live = nil
	r.liveMu.Unlock()
	r.nodesMu.Lock()
	byAddr := r.byAddr
	r.nodesMu.Unlock()
	for _, nd := range byAddr {
		nd.mu.Lock()
		nd.idle = nil
		nd.mu.Unlock()
	}
	return nil
}

// netTransport is one live dispatcher connection to a serve node,
// post-handshake. Between checkouts it waits on its node's idle stack.
// Each checkout ends in exactly one of park, fail or abort, which gives
// back the node's busy count.
type netTransport struct {
	*link
	r    *NetRunner
	node *netNode
}

// observe implements batchObserver: answered-batch latency feeds the
// node's capacity weight.
func (t *netTransport) observe(cells int, elapsed time.Duration) {
	t.node.observe(cells, elapsed)
}

// success implements batchTransport without touching the node's failure
// streak: an answered batch proves little about a connection that may
// still die before its next answer, and a node that answers once per
// connection and then drops it would otherwise reset its streak on every
// connection and never be quarantined — weighted checkout would keep
// routing batches back to it until one ran out of dispatch attempts. A
// node's streak ends with a quiet spell instead (sourceHealth.failure).
func (t *netTransport) success() {}

// benched implements batchBencher: the connection's node is quarantined.
func (t *netTransport) benched() bool {
	//xrlint:allow determinism -- quarantine-release comparison clock, never measurement data
	return t.node.health.quarantinedFor(time.Now()) > 0
}

// park returns the healthy connection to its node's idle stack, or
// closes it when the runner has been closed or the node has left the
// fleet — the drain half of elastic membership: the connection finished
// its in-flight work, and no new work follows it.
func (t *netTransport) park() {
	t.node.busy.Add(-1)
	t.r.liveMu.Lock()
	closed := t.r.liveClosed
	t.r.liveMu.Unlock()
	if closed || t.node.left.Load() {
		t.retire()
		return
	}
	t.node.mu.Lock()
	t.node.idle = append(t.node.idle, t)
	t.node.mu.Unlock()
}

func (t *netTransport) fail(cause error) {
	t.node.busy.Add(-1)
	//xrlint:allow determinism -- quarantine backoff clock for node health, never measurement data
	t.node.health.failure(time.Now(), cause)
	t.retire()
}

func (t *netTransport) abort() {
	t.node.busy.Add(-1)
	t.retire()
}

// retire closes the connection and drops it from the runner's live set.
func (t *netTransport) retire() {
	t.destroy()
	t.r.liveMu.Lock()
	delete(t.r.live, t)
	t.r.liveMu.Unlock()
}
