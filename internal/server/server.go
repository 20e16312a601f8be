// Package server implements sweep-as-a-service: a long-lived job server
// (`xrperf server`) that accepts serialized job documents (internal/job)
// from concurrent submit clients over the testbed frame protocol,
// executes them on one shared memoizing runner — so overlapping grids
// from different clients measure each unique cell once globally — and
// streams each job's canonical output back as ordered prefixes complete.
// Admission control is a bounded queue with busy rejection and
// per-job timeout/cancel (client disconnect aborts the in-flight sweep
// through the ctx-first paths), and the introspection op reports the
// queue's observed arrival/service rates checked against the
// internal/queue M/M/1 model — the paper's own queueing math, dogfooded
// on the server's own queue.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/job"
	"repro/internal/queue"
	"repro/internal/sweep"
	"repro/internal/testbed"
)

// Defaults for the admission-control knobs.
const (
	// DefaultMaxActive is the default number of concurrently executing
	// jobs. Two keeps the shared runner busy while letting single-flight
	// dedupe overlap between clients.
	DefaultMaxActive = 2
	// DefaultQueueDepth is the default number of admitted-but-waiting
	// jobs beyond the active set; arrivals past it are rejected busy.
	DefaultQueueDepth = 8
)

// Config parameterizes a Server.
type Config struct {
	// Runner is the shared measurement runner every job executes on
	// (required). Its cache is what makes overlapping client grids
	// measure each unique cell once globally.
	Runner *sweep.CachedRunner
	// MaxActive bounds concurrently executing jobs (0 = DefaultMaxActive).
	MaxActive int
	// QueueDepth bounds admitted-but-waiting jobs (0 = DefaultQueueDepth;
	// negative = no waiting room, reject unless a slot is free).
	QueueDepth int
	// JobTimeout aborts a job running longer than this (0 = no limit).
	JobTimeout time.Duration
	// Logf receives operational log lines (nil = silent).
	Logf func(format string, args ...any)
}

// Stats is the introspection snapshot answering a stats op. Rates are
// per millisecond to match internal/queue's unit; the Predicted* fields
// are the M/M/1 closed forms evaluated at the observed rates, so a
// client can compare the model against ObservedSojournMS directly.
type Stats struct {
	// UptimeMS is time since the server started serving.
	UptimeMS float64 `json:"uptime_ms"`
	// Arrivals counts run requests received (admitted + rejected).
	Arrivals int64 `json:"arrivals"`
	// Admitted counts jobs that entered the queue.
	Admitted int64 `json:"admitted"`
	// Rejected counts busy rejections (queue full on arrival).
	Rejected int64 `json:"rejected"`
	// Completed counts jobs that finished successfully.
	Completed int64 `json:"completed"`
	// Failed counts jobs that ended in an error, timeout, or disconnect.
	Failed int64 `json:"failed"`
	// Queued is the current number of admitted jobs waiting for a slot.
	Queued int `json:"queued"`
	// Active is the current number of executing jobs.
	Active int `json:"active"`
	// LambdaPerMS is the observed arrival rate λ (admitted/uptime).
	LambdaPerMS float64 `json:"lambda_per_ms"`
	// MuPerMS is the observed service rate µ (completed/busy time).
	MuPerMS float64 `json:"mu_per_ms"`
	// Rho is the observed utilization λ/µ (0 when µ is unknown).
	Rho float64 `json:"rho"`
	// ObservedSojournMS is the mean admission→finish time of finished
	// jobs.
	ObservedSojournMS float64 `json:"observed_sojourn_ms"`
	// PredictedSojournMS is the M/M/1 mean sojourn 1/(µ−λ) at the
	// observed rates, 0 when the observed system is unstable or idle.
	PredictedSojournMS float64 `json:"predicted_sojourn_ms"`
	// Cache is the shared runner's cache counters; Misses is the global
	// unique-cells-measured count across all clients.
	Cache sweep.CacheStats `json:"cache"`
}

// Server executes job documents from concurrent clients on one shared
// runner. Create with New, drive with Serve.
type Server struct {
	cfg Config

	// admission holds one token per admitted-but-unfinished job; its
	// capacity (MaxActive+QueueDepth) is the admission bound. active
	// holds one token per executing job. Both are channels so waiting
	// for a slot composes with ctx cancelation.
	admission chan struct{}
	active    chan struct{}

	mu        sync.Mutex
	start     time.Time
	jobSeq    int64
	arrivals  int64
	admitted  int64
	rejected  int64
	completed int64
	failed    int64
	busy      time.Duration // summed execution time of finished jobs
	sojourn   time.Duration // summed admission→finish time of finished jobs
}

// New validates cfg and builds a Server.
func New(cfg Config) (*Server, error) {
	if cfg.Runner == nil {
		return nil, errors.New("server: Config.Runner is required")
	}
	if cfg.MaxActive == 0 {
		cfg.MaxActive = DefaultMaxActive
	}
	if cfg.MaxActive < 0 {
		return nil, fmt.Errorf("server: MaxActive must be positive, have %d", cfg.MaxActive)
	}
	depth := cfg.QueueDepth
	switch {
	case depth == 0:
		depth = DefaultQueueDepth
	case depth < 0:
		depth = 0
	}
	return &Server{
		cfg:       cfg,
		admission: make(chan struct{}, cfg.MaxActive+depth),
		active:    make(chan struct{}, cfg.MaxActive),
		start:     time.Now(),
	}, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Serve accepts client connections on ln until ctx is canceled or the
// listener fails, handling each concurrently. Canceling ctx closes the
// listener and every live connection; in-flight jobs abort through
// their contexts and the connection writes failing, so shutdown with
// jobs in flight is prompt. ln is closed in every exit path.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	s.mu.Lock()
	s.start = time.Now()
	s.mu.Unlock()
	var (
		mu   sync.Mutex
		live = make(map[net.Conn]struct{})
	)
	closeAll := func() {
		_ = ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for c := range live {
			_ = c.Close()
		}
	}
	stop := context.AfterFunc(ctx, closeAll)
	defer stop()
	defer closeAll()
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		mu.Lock()
		live[conn] = struct{}{}
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				mu.Lock()
				delete(live, conn)
				mu.Unlock()
				_ = conn.Close()
			}()
			if err := s.handle(ctx, conn); err != nil && ctx.Err() == nil {
				s.logf("connection %s: %v", conn.RemoteAddr(), err)
			}
		}()
	}
}

// handshakeTimeout bounds how long a fresh connection may take to send
// its job frame before the server gives up on it.
const handshakeTimeout = 30 * time.Second

// handle runs one client exchange: handshake, one job frame, one
// response stream. Returned errors are connection-level (logged, never
// fatal to the server); job-level failures are reported to the client
// in the result stream and return nil here.
func (s *Server) handle(ctx context.Context, conn net.Conn) error {
	if err := testbed.WriteFrame(conn, testbed.JobsHello()); err != nil {
		return err
	}
	_ = conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	var wj testbed.WireJob
	if err := testbed.ReadFrame(conn, &wj); err != nil {
		return fmt.Errorf("read job frame: %w", err)
	}
	_ = conn.SetReadDeadline(time.Time{})
	if err := wj.Check(); err != nil {
		return writeErr(conn, err)
	}
	switch wj.Op {
	case testbed.JobOpStats:
		return s.writeStats(conn)
	case "", testbed.JobOpRun:
		return s.runJob(ctx, conn, wj.Job)
	default:
		return writeErr(conn, fmt.Errorf("server: unknown op %q", wj.Op))
	}
}

// writeErr reports a job-level failure to the client. The message is the
// error's exact text — for an invalid job, the same text the one-shot
// CLI prints for the same spec.
func writeErr(conn net.Conn, err error) error {
	return testbed.WriteBinaryFrame(conn, testbed.WireResult{Kind: testbed.ResultErr, Err: err.Error()})
}

// writeStats answers a stats op with the current snapshot.
func (s *Server) writeStats(conn net.Conn) error {
	payload, err := json.Marshal(s.Stats())
	if err != nil {
		return err
	}
	return testbed.WriteBinaryFrame(conn, testbed.WireResult{Kind: testbed.ResultStats, Stats: payload})
}

// runJob admits, executes, and streams one job.
func (s *Server) runJob(ctx context.Context, conn net.Conn, doc json.RawMessage) error {
	jb, err := job.Decode(doc)
	if err != nil {
		return writeErr(conn, err)
	}
	// Validate before admission: a malformed job must not consume a
	// queue slot, and must fail with the exact one-shot CLI error text.
	if err := jb.Validate(); err != nil {
		return writeErr(conn, err)
	}

	s.mu.Lock()
	s.arrivals++
	s.jobSeq++
	id := s.jobSeq
	s.mu.Unlock()

	// Admission: one token per unfinished job, rejected busy when the
	// bounded queue (active + waiting) is full — the 429 of this
	// protocol.
	select {
	case s.admission <- struct{}{}:
	default:
		s.mu.Lock()
		s.rejected++
		queued, active := len(s.admission)-len(s.active), len(s.active)
		s.mu.Unlock()
		s.logf("job %d rejected: queue full (%d queued, %d active)", id, queued, active)
		return testbed.WriteBinaryFrame(conn, testbed.WireResult{
			Kind: testbed.ResultBusy,
			Err:  fmt.Sprintf("job queue full (%d queued, %d active); retry later", queued, active),
		})
	}
	admittedAt := time.Now()
	s.mu.Lock()
	s.admitted++
	s.mu.Unlock()
	// release frees the job's slots, once. Every path that counts the
	// job finished releases right after, before writing the job's last
	// frame, so a client that has read that frame finds the job counted
	// and its slots free in any later stats query. The defer covers a
	// return that does neither.
	var running, released bool
	release := func() {
		if released {
			return
		}
		released = true
		if running {
			<-s.active
		}
		<-s.admission
	}
	defer release()

	// The client sends nothing after its job frame, so any read return —
	// EOF, reset, or an unexpected frame — means the client is gone (or
	// broken) and the job should abort through its context.
	jctx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		var discard json.RawMessage
		_ = testbed.ReadFrame(conn, &discard)
		cancel()
	}()

	// Wait for an execution slot; a client that disconnects (or a server
	// shutting down) while queued never starts.
	select {
	case s.active <- struct{}{}:
	case <-jctx.Done():
		s.finish(id, admittedAt, admittedAt, fmt.Errorf("job canceled while queued: %w", jctx.Err()))
		release()
		return writeErr(conn, jctx.Err())
	}
	running = true
	if s.cfg.JobTimeout > 0 {
		var tcancel context.CancelFunc
		jctx, tcancel = context.WithTimeout(jctx, s.cfg.JobTimeout)
		defer tcancel()
	}

	suite, err := jb.SuiteFor(s.cfg.Runner)
	if err != nil {
		s.finish(id, admittedAt, admittedAt, err)
		release()
		return writeErr(conn, err)
	}
	before := s.cfg.Runner.Stats()
	startedAt := time.Now()
	jb.Stream = true
	runErr := jb.Run(jctx, suite, &frameWriter{conn: conn})
	s.finish(id, admittedAt, startedAt, runErr)
	release()
	delta := s.cfg.Runner.Stats()
	s.logf("job %d (%s) done in %s: %d new cells measured, %d served from cache",
		id, kindName(jb), time.Since(startedAt).Round(time.Millisecond),
		delta.Misses-before.Misses, (delta.Hits+delta.DiskHits)-(before.Hits+before.DiskHits))
	if runErr != nil {
		return writeErr(conn, runErr)
	}
	return testbed.WriteBinaryFrame(conn, testbed.WireResult{Kind: testbed.ResultDone})
}

func kindName(j job.Job) string {
	if j.Kind == "" {
		return string(job.KindSweep)
	}
	return string(j.Kind)
}

// finish folds one finished job into the queue counters.
func (s *Server) finish(id int64, admittedAt, startedAt time.Time, err error) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.busy += now.Sub(startedAt)
	s.sojourn += now.Sub(admittedAt)
	if err != nil {
		s.failed++
		return
	}
	s.completed++
}

// Stats snapshots the server's queue and cache counters and evaluates
// the M/M/1 closed forms at the observed rates.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		UptimeMS:  float64(time.Since(s.start)) / float64(time.Millisecond),
		Arrivals:  s.arrivals,
		Admitted:  s.admitted,
		Rejected:  s.rejected,
		Completed: s.completed,
		Failed:    s.failed,
		Queued:    len(s.admission) - len(s.active),
		Active:    len(s.active),
	}
	busyMS := float64(s.busy) / float64(time.Millisecond)
	sojournMS := float64(s.sojourn) / float64(time.Millisecond)
	s.mu.Unlock()
	if st.Queued < 0 {
		st.Queued = 0
	}
	if st.UptimeMS > 0 {
		st.LambdaPerMS = float64(st.Admitted) / st.UptimeMS
	}
	if busyMS > 0 {
		st.MuPerMS = float64(st.Completed+st.Failed) / busyMS
	}
	if done := st.Completed + st.Failed; done > 0 {
		st.ObservedSojournMS = sojournMS / float64(done)
	}
	if st.MuPerMS > 0 {
		st.Rho = st.LambdaPerMS / st.MuPerMS
	}
	// The closed form exists only for a stable observed system (λ < µ);
	// NewMM1 enforces that, so an overloaded or idle snapshot predicts 0.
	if q, err := queue.NewMM1(st.LambdaPerMS, st.MuPerMS); err == nil {
		st.PredictedSojournMS = q.MeanSojourn()
	}
	st.Cache = s.cfg.Runner.Stats()
	return st
}

// frameWriter adapts a connection to io.Writer for a job's output: every
// Write becomes one chunk frame, so the client reproduces the byte
// stream exactly by concatenating chunks in arrival order.
type frameWriter struct {
	conn net.Conn
}

func (w *frameWriter) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if err := testbed.WriteBinaryFrame(w.conn, testbed.WireResult{Kind: testbed.ResultChunk, Chunk: string(p)}); err != nil {
		return 0, err
	}
	return len(p), nil
}
