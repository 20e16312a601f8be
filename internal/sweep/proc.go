package sweep

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/testbed"
)

// ErrRunnerClosed indicates use of a dispatching backend after Close.
var ErrRunnerClosed = errors.New("sweep: runner closed")

// procShardAttempts bounds how many workers one batch may consume: a
// crashed worker's unanswered batches are re-dispatched once to a fresh
// subprocess — riding out a one-off death (OOM kill, operator mistake) —
// while a command that crashes on every batch still fails the sweep with
// the second worker's descriptive error instead of spawning forever.
const procShardAttempts = 2

// ProcRunner executes requests across worker subprocesses speaking the
// batched frame protocol of internal/testbed over stdin/stdout. Workers
// start lazily on first use — handshaking versions at spawn — and
// persist across Run/Stream calls (Close reaps them); requests ride in
// binary multi-request WireBatch frames with up to Pipeline batches
// outstanding per worker, so a worker never idles between frames. A
// worker that crashes or is killed mid-batch is replaced and its
// unanswered batches re-dispatched to a fresh worker
// (procShardAttempts), surfacing a descriptive error carrying the exit
// status and stderr tail — never a hang — when the retry fails too.
// Repeated consecutive failures quarantine the spawn source with backoff
// (sourceHealth), so a persistently crashing worker command cannot
// hot-loop respawns across calls.
//
// Requests must be wire-safe (Request.WireSafe); measurements depend only
// on request content and the deterministic hidden physics, so a proc
// sweep reproduces an in-process pool sweep bit for bit — the binary
// codec carries float64 values losslessly across the boundary.
type ProcRunner struct {
	// Procs is the number of worker subprocesses; 0 or negative means
	// GOMAXPROCS.
	Procs int
	// Command is the worker argv; empty defaults to the current
	// executable with a "worker" argument (`xrperf worker`). Binaries
	// other than xrperf must either implement a worker mode themselves
	// or call testbed.MaybeServeWorker early in main/TestMain.
	Command []string
	// Env appends to the inherited environment of each worker.
	Env []string
	// Batch caps requests per frame; 0 means DefaultBatch. Small grids
	// use smaller batches automatically to keep every worker busy.
	Batch int
	// Pipeline is the window of outstanding batches per worker; 0 means
	// DefaultPipeline.
	Pipeline int

	mu       sync.Mutex
	started  bool
	startErr error
	closed   bool
	argv     []string
	procs    int
	pool     chan *workerProc
	lifeCtx  context.Context
	stop     context.CancelFunc
	nextID   atomic.Int64
	health   sourceHealth
}

// init resolves the configuration and creates the (lazily filled) worker
// pool once.
func (p *ProcRunner) init() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrRunnerClosed
	}
	if p.started {
		return p.startErr
	}
	p.started = true
	p.argv = p.Command
	if len(p.argv) == 0 {
		exe, err := os.Executable()
		if err != nil {
			p.startErr = fmt.Errorf("sweep: resolve worker executable: %w", err)
			return p.startErr
		}
		p.argv = []string{exe, "worker"}
	}
	p.procs = p.Procs
	if p.procs <= 0 {
		p.procs = runtime.GOMAXPROCS(0)
	}
	p.lifeCtx, p.stop = context.WithCancel(context.Background())
	p.pool = make(chan *workerProc, p.procs)
	for i := 0; i < p.procs; i++ {
		//xrlint:allow lockhygiene -- filling a freshly made buffered channel to its exact capacity; cannot block
		p.pool <- nil // nil slot: a worker is spawned at checkout
	}
	return nil
}

// Run implements Runner.
func (p *ProcRunner) Run(ctx context.Context, reqs []testbed.Request) ([]testbed.Measurement, error) {
	return collectStream(ctx, len(reqs), func(ctx context.Context, emit func(int, testbed.Measurement) error) error {
		return p.Stream(ctx, reqs, emit)
	})
}

// Stream implements Runner: batches the requests across the subprocess
// pool with the same ordered-merge and lowest-index error semantics as
// the in-process engine (runBatches mirrors it exactly).
func (p *ProcRunner) Stream(ctx context.Context, reqs []testbed.Request, emit func(idx int, m testbed.Measurement) error) error {
	n := len(reqs)
	if n == 0 {
		return ctx.Err()
	}
	for i, r := range reqs {
		if err := r.WireSafe(); err != nil {
			return fmt.Errorf("sweep: point %d: %w", i, err)
		}
	}
	if err := p.init(); err != nil {
		return err
	}
	cfg := batchConfig{
		sessions: p.procs,
		batch:    p.Batch,
		depth:    p.Pipeline,
		budget:   procShardAttempts,
		source:   procSource{p},
		givingUp: func(j *batchJob) error {
			return fmt.Errorf("sweep: shard %d: giving up after %d workers failed: %w",
				j.off, procShardAttempts, j.lastErr)
		},
	}
	return runBatches(ctx, reqs, cfg, emit)
}

// procSource checks worker subprocesses out of the pool for the batch
// dispatcher.
type procSource struct{ p *ProcRunner }

// acquire takes a pool slot, spawning and handshaking a worker if the
// slot is empty. A quarantined spawn source, a spawn failure, and a
// version mismatch fail the sweep outright (terminalError) — a
// command that cannot produce a compatible worker will not produce one
// on retry either — while a handshake that dies mid-read (the worker
// crashed at startup) consumes a retry attempt like any other crash.
func (s procSource) acquire(cctx context.Context) (batchTransport, error) {
	p := s.p
	select {
	case w := <-p.pool:
		if w != nil {
			return &procTransport{p: p, w: w}, nil
		}
		//xrlint:allow determinism -- quarantine-release comparison clock, never measurement data
		if wait := p.health.quarantinedFor(time.Now()); wait > 0 {
			p.pool <- nil
			// Carry the failure that caused the quarantine: with the
			// engine's lowest-index error selection, this message can be
			// the only one the user sees.
			err := fmt.Errorf("sweep: worker spawns quarantined for %s after repeated failures",
				wait.Round(time.Millisecond))
			if last := p.health.lastFailure(); last != nil {
				err = fmt.Errorf("%w; last: %w", err, last)
			}
			return nil, &terminalError{err: err}
		}
		nw, err := p.startWorker()
		if err != nil {
			p.pool <- nil
			//xrlint:allow determinism -- quarantine backoff clock for spawn health, never measurement data
			p.health.failure(time.Now(), err)
			return nil, &terminalError{err: err}
		}
		if err := p.handshake(cctx, nw); err != nil {
			nw.destroy()
			p.pool <- nil
			if cctx.Err() != nil {
				return nil, &terminalError{err: cctx.Err()}
			}
			//xrlint:allow determinism -- quarantine backoff clock for handshake health, never measurement data
			p.health.failure(time.Now(), err)
			if errors.Is(err, testbed.ErrVersionMismatch) {
				return nil, &terminalError{err: err}
			}
			return nil, err
		}
		return &procTransport{p: p, w: nw}, nil
	case <-cctx.Done():
		return nil, &terminalError{err: cctx.Err()}
	}
}

// Close reaps every idle worker and marks the runner unusable. Call it
// after all Run/Stream calls have returned.
func (p *ProcRunner) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	if !p.started || p.startErr != nil {
		return nil
	}
	for i := 0; i < p.procs; i++ {
		select {
		case w := <-p.pool:
			if w != nil {
				w.destroy()
			}
		default:
		}
	}
	p.stop() // kills any worker that escaped the drain
	return nil
}

// workerProc is one live worker subprocess, post-handshake.
type workerProc struct {
	id       int64
	cmd      *exec.Cmd
	stdin    io.WriteCloser
	bw       *bufio.Writer
	stdout   *bufio.Reader
	stderr   *tailWriter
	waitErr  error
	waitDone chan struct{}
	killOnce sync.Once
}

// startWorker spawns one worker subprocess with the protocol marker set.
func (p *ProcRunner) startWorker() (*workerProc, error) {
	w := &workerProc{
		id:       p.nextID.Add(1) - 1,
		stderr:   &tailWriter{limit: 4096},
		waitDone: make(chan struct{}),
	}
	cmd := exec.CommandContext(p.lifeCtx, p.argv[0], p.argv[1:]...)
	cmd.Env = append(append(os.Environ(), testbed.WorkerEnv+"=1"), p.Env...)
	cmd.Stderr = w.stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("sweep: worker %d stdin: %w", w.id, err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("sweep: worker %d stdout: %w", w.id, err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("sweep: start worker %d (%s): %w", w.id, strings.Join(p.argv, " "), err)
	}
	w.cmd, w.stdin, w.stdout = cmd, stdin, bufio.NewReader(stdout)
	w.bw = bufio.NewWriter(stdin)
	go func() {
		w.waitErr = cmd.Wait()
		close(w.waitDone)
	}()
	return w, nil
}

// handshake reads the fresh worker's hello and verifies the protocol
// and physics versions. It runs under the sweep context so cancelation
// kills the worker instead of wedging on a dead pipe.
func (p *ProcRunner) handshake(cctx context.Context, w *workerProc) error {
	done := make(chan error, 1)
	go func() {
		_, err := testbed.ReadHello(w.stdout)
		done <- err
	}()
	select {
	case err := <-done:
		if errors.Is(err, testbed.ErrVersionMismatch) {
			return fmt.Errorf("sweep: worker %d rejected: %w", w.id, err)
		}
		if err != nil {
			return w.ioErr("handshake", err)
		}
		return nil
	case <-cctx.Done():
		w.kill()
		return cctx.Err()
	}
}

// procTransport adapts one worker subprocess to the batch dispatcher.
type procTransport struct {
	p *ProcRunner
	w *workerProc
}

func (t *procTransport) send(b testbed.WireBatch) error {
	if err := testbed.WriteBinaryFrame(t.w.bw, b); err != nil {
		return t.w.ioErr("write", err)
	}
	if err := t.w.bw.Flush(); err != nil {
		return t.w.ioErr("write", err)
	}
	return nil
}

func (t *procTransport) recv() (testbed.WireBatchResult, error) {
	var res testbed.WireBatchResult
	if err := testbed.ReadBinaryFrame(t.w.stdout, &res); err != nil {
		return res, t.w.ioErr("read", err)
	}
	return res, nil
}

func (t *procTransport) success() { t.p.health.success() }

func (t *procTransport) reject(msg string) error {
	// Request-level rejection from a healthy worker: deterministic,
	// never retried.
	return fmt.Errorf("worker %d: %s", t.w.id, sanitizeLine(msg))
}

func (t *procTransport) corrupt(format string, args ...any) error {
	// Protocol corruption: the worker is broken, not the request.
	return &workerFailure{fmt.Errorf("worker %d %s", t.w.id, fmt.Sprintf(format, args...))}
}

func (t *procTransport) park() { t.p.pool <- t.w }

func (t *procTransport) fail(cause error) {
	//xrlint:allow determinism -- quarantine backoff clock for worker health, never measurement data
	t.p.health.failure(time.Now(), cause)
	t.w.destroy()
	t.p.pool <- nil
}

func (t *procTransport) abort() {
	t.w.destroy()
	t.p.pool <- nil
}

func (t *procTransport) destroy() { t.w.kill() }

// ioErr builds the descriptive error for a broken worker pipe: if the
// process has (or promptly) exited, report its status and stderr tail;
// otherwise report the raw protocol error. Either way the worker is
// broken, so the error is a retryable workerFailure.
func (w *workerProc) ioErr(op string, err error) error {
	select {
	case <-w.waitDone:
		status := "exited cleanly mid-protocol"
		if w.waitErr != nil {
			status = w.waitErr.Error()
		}
		return &workerFailure{fmt.Errorf("worker %d died mid-shard (%s failed; %s)%s", w.id, op, status, w.stderr.suffix())}
	case <-time.After(500 * time.Millisecond):
		return &workerFailure{fmt.Errorf("worker %d protocol %s error: %w%s", w.id, op, err, w.stderr.suffix())}
	}
}

// kill terminates the worker process and closes its stdin, unblocking
// any in-flight protocol read.
func (w *workerProc) kill() {
	w.killOnce.Do(func() {
		if w.cmd.Process != nil {
			_ = w.cmd.Process.Kill()
		}
		_ = w.stdin.Close()
	})
}

// destroy kills the worker and reaps it (bounded wait).
func (w *workerProc) destroy() {
	w.kill()
	select {
	case <-w.waitDone:
	case <-time.After(2 * time.Second):
	}
}
