package sweep

// The batched, pipelined dispatch engine shared by ProcRunner and
// NetRunner. Version 1 of the wire protocol round-tripped one request
// per frame, so every grid point paid one full dispatcher↔worker
// latency; profiles (BENCH_7) showed that latency — not measurement —
// dominating both distributed backends. The engine here removes it two
// ways:
//
//   - Batching: contiguous runs of the request slice ride together in
//     one WireBatch frame (splitBatches), so a 64-point grid costs a
//     handful of round trips instead of 64. Session requests stay
//     singleton batches — their results carry traces and sketches, and
//     a 16-wide session batch could overflow MaxFrameBytes.
//   - Pipelining: each worker session keeps a window of batches in
//     flight (cfg.depth), sending the next batch while earlier ones are
//     still being answered, so a worker never idles between frames.
//
// The engine ends in the same ordered merge as the in-process Stream
// engine (merge, in sweep.go), at request granularity, which is what
// keeps the three backends byte-identical: results are delivered to it
// and it emits each contiguous prefix as it forms; failures report into
// its lowest-index, genuine-beats-canceled selection; cancelation
// destroys transports to unblock in-flight I/O; and a dead transport's
// unanswered batches are re-dispatched to a fresh one under a bounded
// per-batch attempt budget, exactly like v1 re-dispatched shards.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/testbed"
)

// Tuning defaults shared by the dispatching backends.
const (
	// DefaultBatch is the default cap on requests per WireBatch frame.
	// Small grids use smaller batches automatically so every session
	// window stays busy (splitBatches).
	DefaultBatch = 16
	// DefaultPipeline is the default window of outstanding batches per
	// worker session.
	DefaultPipeline = 2
	// defaultStealAfter is the default age before an idle lane may steal
	// another session's unanswered batch: long enough that a healthy
	// worker in steady state loses nothing (a batch is normally answered
	// in well under this), short enough that one slow worker never gates
	// a sweep for more than a beat.
	defaultStealAfter = 50 * time.Millisecond
)

// batchJob is one batch of contiguous requests on its way through the
// dispatcher. Its tag (id) doubles as the grid offset of reqs[0], so a
// result frame identifies both its window slot and its output indices.
//
// With work stealing a job can be in flight on two transports at once
// (the slow victim's copy and the thief's); claimed arbitrates exactly
// one delivery. Ownership — who retries and requeues the job — stays
// unique throughout: a steal transfers it, so attempts/lastErr need no
// lock.
type batchJob struct {
	id       int
	off      int
	reqs     []testbed.Request
	attempts int
	lastErr  error
	// claimed flips exactly once, by the first result that answers this
	// job; a duplicate answer (the batch was stolen) is discarded.
	// Measurements are pure functions of (request, seed), so the two
	// answers carry identical bytes and the winner's identity is
	// irrelevant to output.
	claimed atomic.Bool
}

// terminalError marks an acquire failure that fails the lane's batch —
// and therefore the sweep — immediately instead of consuming one of its
// retry attempts: a quarantined spawn source, a spawn failure, a version
// mismatch, a fully poisoned fleet, or cancelation.
type terminalError struct {
	err error
	// needsIdx renders the error through noHealthySource with the
	// batch's index and last dispatch failure (the net backend's
	// fleet-exhausted diagnostics).
	needsIdx bool
}

func (e *terminalError) Error() string { return e.err.Error() }
func (e *terminalError) Unwrap() error { return e.err }

// errAllCooling reports an acquire that waited out a fully quarantined
// fleet: the attempt is consumed but carries no new failure cause.
var errAllCooling = errors.New("every node quarantined after repeated failures")

// errStandby reports an acquire that stood down without dispatching —
// an empty elastic fleet waiting for its first member, or a membership
// change worth re-evaluating. The batch is requeued without consuming
// one of its attempts: standing by is not a dispatch failure.
var errStandby = errors.New("standing by for fleet membership")

// batchSource checks out transports for the dispatcher. Attempt-level
// failures (a crashed spawn handshake, an unreachable node) return plain
// errors; unrecoverable conditions return *terminalError.
type batchSource interface {
	acquire(cctx context.Context) (batchTransport, error)
}

// batchTransport is one live worker session: a subprocess pipe pair or
// a fleet TCP connection, post-handshake, speaking binary frames.
type batchTransport interface {
	// send writes one batch frame; errors are retryable worker failures.
	send(b testbed.WireBatch) error
	// recv reads one batch-result frame; errors are retryable worker
	// failures.
	recv() (testbed.WireBatchResult, error)
	// success records one healthy batch round trip. The proc backend
	// resets its spawn quarantine on it; the net backend ignores it, so
	// a node that dies after answering still counts its deaths.
	success()
	// reject converts a request-level rejection reported by a healthy
	// worker into its non-retryable error.
	reject(msg string) error
	// corrupt converts protocol corruption into a retryable worker
	// failure naming the source.
	corrupt(format string, args ...any) error
	// park returns the healthy transport for reuse by a later acquire.
	park()
	// fail records a transport death with its cause, destroys the
	// transport, and frees its slot for a replacement.
	fail(cause error)
	// abort destroys the transport and frees its slot without failure
	// accounting (cancelation and request-rejection paths).
	abort()
	// destroy kills the transport without blocking (idempotent); the
	// dispatcher hooks it to cancelation to unblock in-flight I/O.
	destroy()
}

// batchObserver is optionally implemented by transports that fold
// observed batch latency into capacity weights (the net backend). The
// dispatcher reports each first-answer delivery: how many requests,
// how long from send to receive.
type batchObserver interface {
	observe(cells int, elapsed time.Duration)
}

// batchBencher is optionally implemented by transports whose source can
// be quarantined while the transport is checked out (the net backend: a
// node benched because its other connections died). The dispatcher sends
// a benched transport no further batches.
type batchBencher interface {
	benched() bool
}

// batchConfig parameterizes one dispatch run.
type batchConfig struct {
	sessions int // concurrent worker sessions (procs, or nodes×conns)
	batch    int // per-frame request cap; <=0 means DefaultBatch
	depth    int // pipeline window per session; <=0 means DefaultPipeline
	budget   int // attempts per batch before givingUp
	source   batchSource
	givingUp func(j *batchJob) error
	// watch, when set, runs alongside the sessions for the length of the
	// dispatch: stop closes when the work is delivered or canceled, and
	// spawn adds worker sessions mid-run — how an elastic fleet's
	// joiners get lanes of their own. spawn is only valid until watch
	// returns.
	watch func(stop <-chan struct{}, spawn func(n int))
	// stealAfter is how long a batch may sit unanswered on one session
	// before an idle lane re-dispatches it; <=0 means defaultStealAfter.
	// The thief holds no transport while it waits: it steals first and
	// checks out a transport of its own afterwards, so a bounded source
	// (the proc pool) never has a slot held by a lane with nothing to
	// send.
	stealAfter time.Duration
	// onSteal, when set, is called once per successful steal (metrics
	// and test observability).
	onSteal func()
}

// splitBatches carves the request slice into contiguous batch jobs of at
// most batch requests, shrinking the batch size on small grids so every
// session window (sessions×depth lanes) has work. Session requests are
// isolated into singleton batches.
func splitBatches(reqs []testbed.Request, sessions, batch, depth int) []*batchJob {
	if sessions < 1 {
		sessions = 1
	}
	lanes := sessions * depth
	if per := (len(reqs) + lanes - 1) / lanes; per < batch {
		batch = per
	}
	if batch < 1 {
		batch = 1
	}
	var jobs []*batchJob
	flush := func(off, end int) {
		for off < end {
			e := off + batch
			if e > end {
				e = end
			}
			jobs = append(jobs, &batchJob{id: off, off: off, reqs: reqs[off:e]})
			off = e
		}
	}
	start := 0
	for i, r := range reqs {
		if r.Op == testbed.OpSession {
			flush(start, i)
			jobs = append(jobs, &batchJob{id: i, off: i, reqs: reqs[i : i+1]})
			start = i + 1
		}
	}
	flush(start, len(reqs))
	return jobs
}

// batchDispatcher is the run state of one runBatches call.
type batchDispatcher struct {
	cfg     batchConfig
	m       *merge[testbed.Measurement] // m.cctx is the sweep's context
	queue   chan *batchJob
	results chan indexed[testbed.Measurement]
	// queueDone closes when every batch has been delivered. The queue
	// channel itself is never closed: with stealing, a retry can race
	// the final delivery, and a send on a closed channel is a panic
	// where a send raced against queueDone is just a no-op.
	queueDone chan struct{}
	doneOnce  sync.Once

	remaining atomic.Int64

	// drives registers every live transport session's in-flight window
	// so idle lanes can steal from loaded ones.
	drivesMu sync.Mutex
	drives   map[*driveState]struct{}
}

// finish marks all batches delivered, waking idle lanes.
func (d *batchDispatcher) finish() {
	d.doneOnce.Do(func() { close(d.queueDone) })
}

// runBatches evaluates reqs across the source's transports and invokes
// emit in strict request order through the merge the Stream engine
// uses, so error selection and the final error are Stream's.
func runBatches(ctx context.Context, reqs []testbed.Request, cfg batchConfig, emit func(idx int, m testbed.Measurement) error) error {
	n := len(reqs)
	if cfg.batch <= 0 {
		cfg.batch = DefaultBatch
	}
	if cfg.depth <= 0 {
		cfg.depth = DefaultPipeline
	}
	if cfg.stealAfter <= 0 {
		cfg.stealAfter = defaultStealAfter
	}
	m := newMerge(ctx, n, emit)
	defer m.cancel()

	jobs := splitBatches(reqs, cfg.sessions, cfg.batch, cfg.depth)
	d := &batchDispatcher{
		cfg:       cfg,
		m:         m,
		queue:     make(chan *batchJob, len(jobs)),
		results:   make(chan indexed[testbed.Measurement], n),
		queueDone: make(chan struct{}),
		drives:    make(map[*driveState]struct{}),
	}
	for _, j := range jobs {
		d.queue <- j
	}
	d.remaining.Store(int64(len(jobs)))

	sessions := cfg.sessions
	if sessions > len(jobs) {
		sessions = len(jobs)
	}
	var wg sync.WaitGroup
	spawn := func(k int) {
		for i := 0; i < k; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				d.session()
			}()
		}
	}
	spawn(sessions)
	if cfg.watch != nil {
		// The watcher holds a WaitGroup slot of its own, so its spawn
		// calls always run while the counter is positive — no Add-after-
		// Wait race with the results close below.
		stop := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg.watch(stop, spawn)
		}()
		go func() {
			select {
			case <-d.queueDone:
			case <-d.m.cctx.Done():
			}
			close(stop)
		}()
	}
	go func() {
		wg.Wait()
		close(d.results)
	}()

	for r := range d.results {
		m.deliver(r.idx, r.val)
	}
	return m.result()
}

// next takes the lane's next batch: a queued one or, once the queue is
// empty, one stolen from the most loaded session, polling every
// stealAfter/2 until a batch qualifies. It reports false when every
// batch has been delivered or the sweep canceled. A lane waiting here
// holds no transport.
func (d *batchDispatcher) next() (*batchJob, bool) {
	wait := d.cfg.stealAfter / 2
	if wait < time.Millisecond {
		wait = time.Millisecond
	}
	for {
		select {
		case j := <-d.queue:
			return j, true
		case <-d.queueDone:
			return nil, false
		case <-d.m.cctx.Done():
			return nil, false
		default:
		}
		//xrlint:allow determinism -- steal age clock for dispatch steering, never measurement data
		if j := d.steal(time.Now()); j != nil {
			return j, true
		}
		select {
		case j := <-d.queue:
			return j, true
		case <-d.queueDone:
			return nil, false
		case <-d.m.cctx.Done():
			return nil, false
		case <-time.After(wait):
		}
	}
}

// requeue puts a batch back on the queue without charging an attempt —
// the standby path, where nothing was actually dispatched.
func (d *batchDispatcher) requeue(j *batchJob) {
	select {
	case d.queue <- j:
	case <-d.queueDone:
	case <-d.m.cctx.Done():
	}
}

// retry charges one attempt against the batch and requeues it, or gives
// up through cfg.givingUp when the budget is spent. A nil cause (a
// quarantine wait) leaves the recorded last failure untouched. A batch
// whose result already arrived on another transport (it was stolen) is
// dropped: its delivery is done, there is nothing to retry.
func (d *batchDispatcher) retry(j *batchJob, cause error) {
	if j.claimed.Load() {
		return
	}
	if cause != nil {
		j.lastErr = cause
	}
	j.attempts++
	if j.attempts >= d.cfg.budget {
		d.m.fail(j.off, d.cfg.givingUp(j))
		return
	}
	d.requeue(j)
}

// session is one worker lane: take a batch (queued or stolen), check
// out a transport for it, and drive the transport until it dies or goes
// idle.
func (d *batchDispatcher) session() {
	for {
		j, ok := d.next()
		if !ok {
			return
		}
		t, err := d.cfg.source.acquire(d.m.cctx)
		if err != nil {
			var te *terminalError
			if errors.As(err, &te) {
				e := te.err
				if te.needsIdx {
					e = noHealthySource(j.off, te.err, j.lastErr)
				}
				d.m.fail(j.off, e)
				return
			}
			if errors.Is(err, errStandby) {
				d.requeue(j)
				continue
			}
			if errors.Is(err, errAllCooling) {
				err = nil
			}
			d.retry(j, err)
			continue
		}
		d.drive(t, j)
	}
}

// inflightEntry is one sent-but-unanswered batch in a drive's FIFO.
type inflightEntry struct {
	j *batchJob
	// sentAt stamps the send, for the steal age criterion.
	sentAt time.Time
	// stolen marks an entry another session has re-dispatched: ownership
	// moved to the thief, so this drive must not retry it on death. The
	// entry stays in the FIFO — the victim's worker will still answer it
	// in order, and that answer must be consumed (and discarded via the
	// claim) to keep FIFO matching exact.
	stolen bool
}

// driveState is one transport session's in-flight window, registered
// with the dispatcher so idle lanes can steal from it.
type driveState struct {
	mu      sync.Mutex
	entries []inflightEntry
}

func (ds *driveState) push(j *batchJob, sentAt time.Time) {
	ds.mu.Lock()
	ds.entries = append(ds.entries, inflightEntry{j: j, sentAt: sentAt})
	ds.mu.Unlock()
}

func (ds *driveState) pop() (inflightEntry, bool) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if len(ds.entries) == 0 {
		return inflightEntry{}, false
	}
	e := ds.entries[0]
	ds.entries = ds.entries[1:]
	return e, true
}

func (ds *driveState) unpop(e inflightEntry) {
	ds.mu.Lock()
	ds.entries = append([]inflightEntry{e}, ds.entries...)
	ds.mu.Unlock()
}

// pendingOnlyStolen reports whether the drive still awaits answers and
// every one of them is for an entry whose delivery is someone else's:
// stolen (a thief owns it) or already claimed (a duplicate answered).
func (ds *driveState) pendingOnlyStolen() bool {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if len(ds.entries) == 0 {
		return false
	}
	for _, e := range ds.entries {
		if !e.stolen && !e.j.claimed.Load() {
			return false
		}
	}
	return true
}

// steal re-dispatches one batch from the most loaded session: the
// newest unanswered, unstolen, unclaimed entry at least stealAfter old.
// A session's head entry is held to a 4× stiffer age bar — its worker
// is most likely midway through measuring it, and duplicating that
// compute is only worth it once the batch has gone unanswered long
// enough to look like a genuine straggler (a slow node whose every
// in-flight batch is a singleton head is exactly the case stealing
// exists to rescue). Returns nil when nothing qualifies.
func (d *batchDispatcher) steal(now time.Time) *batchJob {
	d.drivesMu.Lock()
	defer d.drivesMu.Unlock()
	var victim *driveState
	var best int
	for ds := range d.drives {
		ds.mu.Lock()
		n := len(ds.entries)
		ds.mu.Unlock()
		if n > best {
			victim, best = ds, n
		}
	}
	if victim == nil {
		return nil
	}
	victim.mu.Lock()
	defer victim.mu.Unlock()
	for i := len(victim.entries) - 1; i >= 0; i-- {
		e := &victim.entries[i]
		age := now.Sub(e.sentAt)
		if e.stolen || e.j.claimed.Load() || age < d.cfg.stealAfter {
			continue
		}
		if i == 0 && age < 4*d.cfg.stealAfter {
			continue
		}
		e.stolen = true
		if d.cfg.onSteal != nil {
			d.cfg.onSteal()
		}
		return e.j
	}
	return nil
}

// drive runs one transport's send/receive session: the calling goroutine
// sends batch frames with up to depth outstanding, while a receiver
// goroutine matches result frames to the in-flight FIFO and delivers
// items. Responses come back in send order on a connection (the worker
// loop is sequential), so FIFO matching is exact; the echoed batch tag
// is checked as a corruption guard. On transport death every unanswered
// batch this drive still owns is collected and re-dispatched through
// retry; entries stolen by other sessions are theirs to finish.
func (d *batchDispatcher) drive(t batchTransport, first *batchJob) {
	stop := context.AfterFunc(d.m.cctx, t.destroy)
	defer stop()

	me := &driveState{}
	d.drivesMu.Lock()
	d.drives[me] = struct{}{}
	d.drivesMu.Unlock()
	defer func() {
		d.drivesMu.Lock()
		delete(d.drives, me)
		d.drivesMu.Unlock()
	}()

	// sem bounds the window; tokens hands sent batches to the receiver.
	// Tokens in flight never exceed held window slots, so the token send
	// cannot block even after the receiver dies.
	sem := make(chan struct{}, d.cfg.depth)
	tokens := make(chan struct{}, d.cfg.depth)
	recvDone := make(chan error, 1)
	// outstanding counts sent-but-not-fully-processed batches; drained
	// pulses when it returns to zero, so the sender can wake up and
	// release an idle transport instead of holding it against the queue.
	var outstanding atomic.Int64
	drained := make(chan struct{}, 1)

	go func() {
		for range tokens {
			res, err := t.recv()
			if err != nil {
				recvDone <- err
				return
			}
			e, ok := me.pop()
			if !ok {
				recvDone <- t.corrupt("answered with no batch in flight")
				return
			}
			j := e.j
			if res.ID != j.id {
				me.unpop(e)
				recvDone <- t.corrupt("answered batch %d to batch %d", res.ID, j.id)
				return
			}
			if len(res.Items) != len(j.reqs) {
				me.unpop(e)
				recvDone <- t.corrupt("answered %d items to a %d-request batch", len(res.Items), len(j.reqs))
				return
			}
			if !j.claimed.CompareAndSwap(false, true) {
				// The batch was stolen and the other copy answered first.
				// The worker was healthy and the bytes identical — only
				// the delivery is already done. Window accounting only.
				t.success()
				<-sem
				if outstanding.Add(-1) == 0 {
					select {
					case drained <- struct{}{}:
					default:
					}
				}
				continue
			}
			bad := -1
			for i, it := range res.Items {
				if it.Err != "" {
					bad = i
					break
				}
				d.results <- indexed[testbed.Measurement]{j.off + i, it.M}
			}
			if bad >= 0 {
				// Request-level rejection from a healthy worker:
				// deterministic, never retried. Earlier items of the batch
				// still count — they are valid prefix results.
				d.m.fail(j.off+bad, t.reject(res.Items[bad].Err))
				recvDone <- nil
				return
			}
			t.success()
			if bo, ok := t.(batchObserver); ok {
				//xrlint:allow determinism -- batch latency feeds capacity weights (dispatch steering), never measurement data
				bo.observe(len(j.reqs), time.Since(e.sentAt))
			}
			if d.remaining.Add(-1) == 0 {
				d.finish()
			}
			<-sem
			if outstanding.Add(-1) == 0 {
				select {
				case drained <- struct{}{}:
				default:
				}
			}
		}
		recvDone <- nil
	}()

	j := first
	var rerr, sendFail error
	recvSeen := false
	// slot records a window slot held for the next send. The slot is
	// taken before the work: a session with a full window that took a
	// batch from the queue would hold it where no thief can see it, and
	// a node that stopped answering would stall the sweep for good.
	slot := false
send:
	for {
		if !slot {
			select {
			case sem <- struct{}{}:
				slot = true
			case <-d.queueDone:
				break send
			case <-d.m.cctx.Done():
				break send
			case rerr = <-recvDone:
				recvSeen = true
				break send
			}
		}
		for j == nil {
			if outstanding.Load() == 0 {
				// Idle: take queued work if there is any, else release
				// the transport rather than hold it against the queue.
				// With a bounded source shared by concurrent dispatchers,
				// the next batch may be in the hands of a lane blocked in
				// acquire, waiting for exactly this slot. The session
				// loop steals or waits in next, holding no transport.
				select {
				case j = <-d.queue:
					continue
				default:
					break send
				}
			}
			// The window is still working; block until something changes.
			select {
			case j = <-d.queue:
			case <-d.queueDone:
				break send
			case <-d.m.cctx.Done():
				break send
			case rerr = <-recvDone:
				recvSeen = true
				break send
			case <-drained:
				// The window just emptied; re-evaluate idleness.
			}
		}
		if j.claimed.Load() {
			// Answered elsewhere while it sat queued; nothing to send.
			j = nil
			continue
		}
		if bb, ok := t.(batchBencher); ok && bb.benched() {
			// The source was quarantined while this transport was checked
			// out. Sending it more work would hand batches to a node that
			// keeps killing connections, charging each an attempt; requeue
			// the batch uncharged and wind the drive down once its window
			// is answered.
			d.requeue(j)
			j = nil
			break send
		}
		//xrlint:allow determinism -- send timestamp for steal age and latency weights, never measurement data
		sentAt := time.Now()
		if err := t.send(testbed.WireBatch{ID: j.id, Reqs: j.reqs}); err != nil {
			sendFail = err
			break send
		}
		me.push(j, sentAt)
		outstanding.Add(1)
		tokens <- struct{}{}
		j, slot = nil, false
	}
	if slot {
		<-sem
	}
	close(tokens)
	if !recvSeen {
		select {
		case <-d.queueDone:
			// The sweep is complete. If every answer this drive still
			// expects was delivered by a thief, the slow pipe has nothing
			// left to say worth waiting for: sacrifice the connection
			// instead of draining it, so the sweep returns at the fast
			// nodes' pace — which is the entire point of stealing.
			if (j == nil || j.claimed.Load()) && me.pendingOnlyStolen() {
				t.abort()
				return
			}
		default:
		}
		// Wait the receiver out: it exits on the closed token stream, or
		// on the recv error cancelation's transport destroy provokes.
		if r := <-recvDone; rerr == nil {
			rerr = r
		}
	}

	// Collect the batches this drive still owns: stolen entries belong
	// to their thief now, and claimed ones were already delivered by a
	// duplicate answer.
	var orphans []*batchJob
	me.mu.Lock()
	for _, e := range me.entries {
		if !e.stolen && !e.j.claimed.Load() {
			orphans = append(orphans, e.j)
		}
	}
	me.entries = nil
	me.mu.Unlock()
	if j != nil && !j.claimed.Load() {
		orphans = append(orphans, j)
	}

	if d.m.cctx.Err() != nil {
		// Canceled (by a report, an emit failure, or the caller): no
		// accounting, no retries — just make sure the transport is dead
		// and its slot freed.
		t.abort()
		return
	}
	cause := sendFail
	if cause == nil {
		cause = rerr
	}
	if cause == nil {
		t.park()
		return
	}
	t.fail(cause)
	for _, o := range orphans {
		d.retry(o, cause)
	}
}
