package sweep

// Worker-lifecycle helpers shared by the dispatching backends. ProcRunner
// (subprocesses over pipes) and NetRunner (serve nodes over TCP) manage
// the same kind of resource — a remote worker that can crash, hang, or
// babble — so the pieces that make those failures survivable live here
// once: the framed worker link with its bounded, cancelable handshake,
// the error taxonomy separating a broken worker from a request the
// worker correctly rejected, the stderr/error-text sanitizer, and the
// per-source failure tracker that quarantines a repeatedly failing
// worker source with exponential backoff. What stays in each backend is
// where its streams come from: proc's bounded slot pool of subprocesses,
// net's weighted nodes and idle connection stacks.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
	"unicode"

	"repro/internal/testbed"
)

// link is one framed worker stream — a subprocess's stdio or a TCP
// connection — past its handshake. It carries the frame I/O and the
// error wording both backends share; the transports embed it and add
// only their source's lifecycle.
type link struct {
	name string // "worker 3", "node host:port": the prefix of every error
	rwc  io.ReadWriteCloser
	br   *bufio.Reader
	bw   *bufio.Writer
	// died, when set, describes a broken stream from what the worker
	// left behind (the proc backend's exit status and stderr tail).
	died      func(op string, err error) error
	closeOnce sync.Once
}

// openLink reads the worker's hello from rwc under both timeout and ctx.
// Either one closes rwc, which unblocks the read on pipes and sockets
// alike, so no worker can hold a checkout by staying silent. A version
// mismatch is a plain error wrapping testbed.ErrVersionMismatch (the
// same build will mismatch again); a timeout or a broken or garbled
// hello is a retryable workerFailure; cancelation returns ctx's error.
// On any failure rwc is closed.
func openLink(ctx context.Context, name string, rwc io.ReadWriteCloser, died func(op string, err error) error, timeout time.Duration) (*link, error) {
	l := &link{name: name, rwc: rwc, br: bufio.NewReader(rwc), bw: bufio.NewWriter(rwc), died: died}
	hctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	stop := context.AfterFunc(hctx, l.destroy)
	_, err := testbed.ReadHello(l.br)
	if !stop() {
		// The stream was closed under the read, whatever it returned.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, &workerFailure{fmt.Errorf("%s: handshake timed out after %s", name, timeout)}
	}
	switch {
	case errors.Is(err, testbed.ErrVersionMismatch):
		l.destroy()
		return nil, fmt.Errorf("sweep: %s rejected: %w", name, err)
	case err != nil:
		// Describe the failure before closing: closing a subprocess link
		// kills the worker, which would mask the exit status it left.
		err = l.ioErr("handshake", err)
		l.destroy()
		return nil, err
	}
	return l, nil
}

func (l *link) send(b testbed.WireBatch) error {
	if err := testbed.WriteBinaryFrame(l.bw, b); err != nil {
		return l.ioErr("write", err)
	}
	if err := l.bw.Flush(); err != nil {
		return l.ioErr("write", err)
	}
	return nil
}

func (l *link) recv() (testbed.WireBatchResult, error) {
	var res testbed.WireBatchResult
	if err := testbed.ReadBinaryFrame(l.br, &res); err != nil {
		return res, l.ioErr("read", err)
	}
	return res, nil
}

// reject converts a request-level rejection from a healthy worker:
// deterministic, never retried.
func (l *link) reject(msg string) error {
	return fmt.Errorf("%s: %s", l.name, sanitizeLine(msg))
}

// corrupt reports protocol corruption: the worker is broken, not the
// request.
func (l *link) corrupt(format string, args ...any) error {
	return &workerFailure{fmt.Errorf("%s %s", l.name, fmt.Sprintf(format, args...))}
}

// destroy closes the stream without blocking (idempotent), unblocking
// any in-flight read.
func (l *link) destroy() {
	l.closeOnce.Do(func() { _ = l.rwc.Close() })
}

// ioErr builds the retryable failure for a broken stream.
func (l *link) ioErr(op string, err error) error {
	if l.died != nil {
		return &workerFailure{l.died(op, err)}
	}
	return &workerFailure{fmt.Errorf("%s: %s failed: %w", l.name, op, err)}
}

// workerFailure marks an error as a broken worker — a crash, disconnect,
// or protocol corruption — rather than a request-level rejection the
// worker reported while healthy. Worker failures are retryable: the
// measurement is a pure function of the request, so re-dispatching the
// shard to another worker reproduces the exact same bytes. Request-level
// errors are deterministic and re-dispatching them would only repeat the
// rejection, so they surface immediately.
type workerFailure struct{ err error }

func (e *workerFailure) Error() string { return e.err.Error() }
func (e *workerFailure) Unwrap() error { return e.err }

// retryable reports whether err marks a broken worker whose shard may be
// re-dispatched.
func retryable(err error) bool {
	var wf *workerFailure
	return errors.As(err, &wf)
}

// Quarantine policy shared by the dispatching backends: a source that
// fails quarantineAfter times in a row is benched for backoffBase,
// doubling on each further failure up to backoffMax. A success resets
// the streak, and so does a quiet spell: a failure more than backoffMax
// after the previous one starts a new streak.
const (
	quarantineAfter = 3
	backoffBase     = 250 * time.Millisecond
	backoffMax      = 8 * time.Second
)

// sourceHealth tracks one worker source — the proc backend's subprocess
// spawner, or one remote node — through failures. It answers two
// questions at checkout time: is the source quarantined (cooling off
// after repeated failures), and is it poisoned (permanently unusable,
// e.g. a handshake version mismatch)? Quarantine heals with time and
// success; poison never does.
type sourceHealth struct {
	mu          sync.Mutex
	consecutive int
	lastFail    time.Time
	until       time.Time
	lastErr     error
	poison      error
	// jitterKey/jitterN drive the deterministic backoff jitter: the key
	// identifies the source (a node address; zero for anonymous sources),
	// the counter sequences the draws. Seeded rather than random so two
	// runs of the same fleet land the same windows — the determinism
	// contract covers timing-free output, but reproducible schedules keep
	// failures debuggable.
	jitterKey uint64
	jitterN   uint64
}

// seedJitter keys this source's jitter stream to a stable identity.
func (h *sourceHealth) seedJitter(key string) {
	// FNV-1a over the key.
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	v := uint64(offset64)
	for i := 0; i < len(key); i++ {
		v ^= uint64(key[i])
		v *= prime64
	}
	h.mu.Lock()
	h.jitterKey = v
	h.mu.Unlock()
}

// mix64 is the SplitMix64 finalizer: a bijective avalanche over 64 bits,
// turning (key, draw counter) into an evenly spread jitter fraction with
// no clock and no global rand — xrlint's determinism contract holds.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// failure records one worker failure and its cause, starting or
// extending the quarantine window once the consecutive-failure
// threshold is reached. The cause is kept so a quarantine error can
// carry the diagnostic that triggered it (exit status, stderr tail)
// instead of just "quarantined".
func (h *sourceHealth) failure(now time.Time, cause error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if now.Sub(h.lastFail) > backoffMax {
		h.consecutive = 0
	}
	h.lastFail = now
	h.consecutive++
	if cause != nil {
		h.lastErr = cause
	}
	if h.consecutive < quarantineAfter {
		return
	}
	shift := h.consecutive - quarantineAfter
	if shift > 10 {
		shift = 10 // backoffMax is hit long before the shift overflows
	}
	d := backoffBase << shift
	if d > backoffMax {
		d = backoffMax
	}
	// Jitter the window into [d/2, d): unjittered exponential backoff
	// synchronizes every dispatcher benching the same node, so all of
	// them re-probe in the same instant and thundering-herd a node that
	// was recovering. The jitter is deterministic — keyed per source,
	// sequenced per draw — so the desynchronization costs none of the
	// reproducibility.
	h.jitterN++
	frac := float64(mix64(h.jitterKey^h.jitterN*0x9e3779b97f4a7c15)>>11) / (1 << 53)
	d = d/2 + time.Duration(frac*float64(d/2))
	h.until = now.Add(d)
}

// success resets the failure streak and lifts any quarantine.
func (h *sourceHealth) success() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.consecutive = 0
	h.until = time.Time{}
}

// quarantinedFor returns how much longer the source is benched; zero
// means usable now.
func (h *sourceHealth) quarantinedFor(now time.Time) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.until.After(now) {
		return h.until.Sub(now)
	}
	return 0
}

// lastFailure returns the most recent failure cause, or nil.
func (h *sourceHealth) lastFailure() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.lastErr
}

// poisonWith marks the source permanently unusable; the first reason
// sticks.
func (h *sourceHealth) poisonWith(err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.poison == nil {
		h.poison = err
	}
}

// poisoned returns the permanent-failure reason, or nil.
func (h *sourceHealth) poisoned() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.poison
}

// sanitizeLine renders arbitrary worker-reported text as printable
// single-line UTF-8 safe to embed in an error message: truncation-split
// runes and other invalid sequences are dropped, newlines and tabs
// collapse to spaces, and remaining non-printable runes are removed.
func sanitizeLine(s string) string {
	s = strings.ToValidUTF8(s, "")
	s = strings.Map(func(r rune) rune {
		switch {
		case r == '\n' || r == '\t' || r == '\r':
			return ' '
		case !unicode.IsPrint(r):
			return -1
		}
		return r
	}, s)
	return strings.Join(strings.Fields(s), " ")
}

// tailWriter keeps the last limit bytes written — enough stderr context
// to make a crash error actionable without unbounded buffering.
type tailWriter struct {
	mu    sync.Mutex
	limit int
	buf   []byte
}

func (t *tailWriter) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > t.limit {
		t.buf = t.buf[len(t.buf)-t.limit:]
	}
	return len(p), nil
}

// suffix renders the tail as a sanitized "; stderr: ..." fragment, or
// nothing when the tail is empty (or pure garbage).
func (t *tailWriter) suffix() string {
	t.mu.Lock()
	buf := string(t.buf)
	t.mu.Unlock()
	s := sanitizeLine(buf)
	if s == "" {
		return ""
	}
	return "; stderr: " + s
}

// noHealthySource builds the give-up error for a dispatch loop that ran
// out of usable sources, folding in the most recent failure when there
// is one.
func noHealthySource(idx int, cause, lastErr error) error {
	if lastErr != nil {
		return fmt.Errorf("sweep: shard %d: %w (last dispatch failure: %v)", idx, cause, lastErr)
	}
	return fmt.Errorf("sweep: shard %d: %w", idx, cause)
}
