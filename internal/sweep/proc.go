package sweep

import (
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
// worker that crashes or is killed mid-batch, or never says hello within
// netDialTimeout, is replaced and its unanswered batches re-dispatched
// to a fresh worker (procShardAttempts), surfacing a descriptive error
// carrying the exit status and stderr tail — never a hang — when the
// retry fails too. A worker that stays alive but stops answering has
// its unanswered batches stolen by idle lanes, exactly as a slow net
// node does, so one stalled worker cannot stall the sweep.
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
	pool     chan *procTransport
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
	p.pool = make(chan *procTransport, p.procs)
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
// on retry either — while a handshake that dies mid-read or times out
// (the worker crashed or hung at startup) consumes a retry attempt like
// any other crash.
func (s procSource) acquire(cctx context.Context) (batchTransport, error) {
	p := s.p
	select {
	case t := <-p.pool:
		if t != nil {
			return t, nil
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
		t, err := p.startWorker(cctx)
		if err != nil {
			p.pool <- nil
			if cctx.Err() != nil {
				return nil, &terminalError{err: cctx.Err()}
			}
			//xrlint:allow determinism -- quarantine backoff clock for spawn health, never measurement data
			p.health.failure(time.Now(), err)
			if retryable(err) {
				return nil, err
			}
			return nil, &terminalError{err: err}
		}
		return t, nil
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
		case t := <-p.pool:
			if t != nil {
				t.reap()
			}
		default:
		}
	}
	p.stop() // kills any worker that escaped the drain
	return nil
}

// procTransport is one live worker subprocess, post-handshake: its
// stdio link plus the signal that it has been reaped.
type procTransport struct {
	*link
	p      *ProcRunner
	exited <-chan struct{}
}

// workerStdio joins a worker's stdout and stdin into one stream. Closing
// it kills the worker and closes both pipes, so a read blocked on a
// silent or wedged worker returns at once.
type workerStdio struct {
	io.ReadCloser // stdout
	stdin         io.WriteCloser
	proc          *os.Process
}

func (s workerStdio) Write(b []byte) (int, error) { return s.stdin.Write(b) }

func (s workerStdio) Close() error {
	_ = s.proc.Kill()
	_ = s.stdin.Close()
	return s.ReadCloser.Close()
}

// startWorker spawns one worker subprocess with the protocol marker set
// and opens its link. Spawn failures are plain errors; a failed
// handshake has already reaped the worker.
func (p *ProcRunner) startWorker(ctx context.Context) (*procTransport, error) {
	id := p.nextID.Add(1) - 1
	stderr := &tailWriter{limit: 4096}
	cmd := exec.CommandContext(p.lifeCtx, p.argv[0], p.argv[1:]...)
	cmd.Env = append(os.Environ(), testbed.WorkerEnv+"=1")
	cmd.Stderr = stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("sweep: worker %d stdin: %w", id, err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("sweep: worker %d stdout: %w", id, err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("sweep: start worker %d (%s): %w", id, strings.Join(p.argv, " "), err)
	}
	exited := make(chan struct{})
	var waitErr error
	go func() {
		waitErr = cmd.Wait()
		close(exited)
	}()
	name := fmt.Sprintf("worker %d", id)
	// died reports the exit status and stderr tail if the process has
	// (or promptly) exited, and the raw protocol error otherwise.
	died := func(op string, err error) error {
		select {
		case <-exited:
			status := "exited cleanly mid-protocol"
			if waitErr != nil {
				status = waitErr.Error()
			}
			return fmt.Errorf("%s died mid-shard (%s failed; %s)%s", name, op, status, stderr.suffix())
		case <-time.After(500 * time.Millisecond):
			return fmt.Errorf("%s protocol %s error: %w%s", name, op, err, stderr.suffix())
		}
	}
	l, err := openLink(ctx, name, workerStdio{stdout, stdin, cmd.Process}, died, netDialTimeout)
	t := &procTransport{link: l, p: p, exited: exited}
	if err != nil {
		t.reap()
		return nil, err
	}
	return t, nil
}

func (t *procTransport) success() { t.p.health.success() }

func (t *procTransport) park() { t.p.pool <- t }

func (t *procTransport) fail(cause error) {
	//xrlint:allow determinism -- quarantine backoff clock for worker health, never measurement data
	t.p.health.failure(time.Now(), cause)
	t.reap()
	t.p.pool <- nil
}

func (t *procTransport) abort() {
	t.reap()
	t.p.pool <- nil
}

// reap kills the worker and waits (bounded) for it to exit. A worker
// whose handshake failed has no link: openLink closed its stream, which
// already killed it.
func (t *procTransport) reap() {
	if t.link != nil {
		t.destroy()
	}
	select {
	case <-t.exited:
	case <-time.After(2 * time.Second):
	}
}
