package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sweep"
	"repro/internal/testbed"
)

// Span is one timed call into a layer, in the span model of Dapper:
// a name, start and end on one clock, the span that caused it, and the
// id of the job or request it served. Times are nanoseconds since the
// tracer started.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// N is the number of requests the call carried (0 when not
	// meaningful for the layer).
	N int `json:"n,omitempty"`
}

// Dur is the span's duration.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps spans in memory until the benchmark writes them out. A nil
// *Tracer records nothing, so untraced runs pay one nil check per call.
type Tracer struct {
	origin time.Time
	nextID atomic.Int64
	// off pauses recording, for layers wired once at set-up that must
	// run untraced in the untraced slices of a traced run.
	off atomic.Bool

	mu    sync.Mutex
	spans []Span
}

// NewTracer starts a tracer whose clock origin is now.
func NewTracer() *Tracer { return &Tracer{origin: time.Now()} }

// now reads the tracer clock.
func (t *Tracer) now() int64 { return int64(time.Since(t.origin)) }

// Begin opens a span; the returned function closes and records it.
func (t *Tracer) Begin(name string, parent, req int64, n int) (id int64, end func()) {
	if t == nil || t.off.Load() {
		return 0, func() {}
	}
	id = t.nextID.Add(1)
	start := t.now()
	return id, func() {
		s := Span{ID: id, Parent: parent, Name: name, Req: req, Start: start, End: t.now(), N: n}
		t.mu.Lock()
		t.spans = append(t.spans, s)
		t.mu.Unlock()
	}
}

// Spans returns a copy of the recorded spans, ordered by start.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// WriteFile writes the spans as JSON lines.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// SelfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Children may overlap each other
// (a backend call running beside the emit callbacks it feeds), so the
// covered part is the union of their intervals clipped to the parent.
func SelfTimes(spans []Span) map[int64]time.Duration {
	children := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, curS, curE int64
		open := false
		for _, k := range kids {
			ks, ke := max(k.Start, s.Start), min(k.End, s.End)
			if ke <= ks {
				continue
			}
			switch {
			case !open:
				curS, curE, open = ks, ke, true
			case ks > curE:
				covered += curE - curS
				curS, curE = ks, ke
			case ke > curE:
				curE = ke
			}
		}
		if open {
			covered += curE - curS
		}
		self[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// spanKey carries the enclosing span id through a context, so a layer
// wrapper below another one (the backend under CachedRunner) finds its
// parent without any change to the code in between.
type spanKey struct{}

func parentSpan(ctx context.Context) int64 {
	id, _ := ctx.Value(spanKey{}).(int64)
	return id
}

// reqKey carries the job or pass id the spans belong to.
type reqKey struct{}

func withReq(ctx context.Context, req int64) context.Context {
	return context.WithValue(ctx, reqKey{}, req)
}

func reqOf(ctx context.Context) int64 {
	id, _ := ctx.Value(reqKey{}).(int64)
	return id
}

// tracedRunner times one sweep.Runner layer from outside: a span around
// each Stream call, and, when emitName is set, a child span around each
// emit callback the layer makes into its caller.
type tracedRunner struct {
	inner    sweep.Runner
	tr       *Tracer
	name     string
	emitName string
}

func (r *tracedRunner) Run(ctx context.Context, reqs []testbed.Request) ([]testbed.Measurement, error) {
	out := make([]testbed.Measurement, len(reqs))
	err := r.Stream(ctx, reqs, func(idx int, m testbed.Measurement) error {
		out[idx] = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (r *tracedRunner) Stream(ctx context.Context, reqs []testbed.Request, emit func(idx int, m testbed.Measurement) error) error {
	req := reqOf(ctx)
	id, end := r.tr.Begin(r.name, parentSpan(ctx), req, len(reqs))
	defer end()
	if r.emitName != "" {
		inner := emit
		emit = func(idx int, m testbed.Measurement) error {
			_, endEmit := r.tr.Begin(r.emitName, id, req, 1)
			defer endEmit()
			return inner(idx, m)
		}
	}
	return r.inner.Stream(context.WithValue(ctx, spanKey{}, id), reqs, emit)
}

// traceLayers wraps a backend the way the traced run sees the sweep
// layers: a span around the backend's Stream (below the cache) and one
// around CachedRunner.Stream (above it), with the caller's emit callbacks
// as children of the latter. With a nil tracer the plain cached runner is
// returned. The cache is the one wrapped, so its counters stay readable.
func traceLayers(tr *Tracer, cached *sweep.CachedRunner) sweep.Runner {
	if tr == nil {
		return cached
	}
	return &tracedRunner{inner: cached, tr: tr, name: "sweep.cache.stream", emitName: "sweep.emit"}
}

// traceBackend wraps a backend below the cache; nil tracer is a no-op.
func traceBackend(tr *Tracer, backend sweep.Runner) sweep.Runner {
	if tr == nil {
		return backend
	}
	return &tracedRunner{inner: backend, tr: tr, name: "sweep.backend.stream"}
}

// wire counts the bytes and reads that a workload's loopback connections
// carry, across every listener it hands out, and the connections
// themselves: how many were accepted and the most open at once.
type wire struct {
	bytes, reads atomic.Int64
	accepted     atomic.Int64
	live, peak   atomic.Int64
}

// listen opens a counted loopback listener.
func (w *wire) listen() (net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &countingListener{Listener: ln, w: w}, nil
}

type countingListener struct {
	net.Listener
	w *wire
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.w.accepted.Add(1)
	n := l.w.live.Add(1)
	for p := l.w.peak.Load(); n > p && !l.w.peak.CompareAndSwap(p, n); p = l.w.peak.Load() {
	}
	return &countingConn{Conn: c, w: l.w}, nil
}

type countingConn struct {
	net.Conn
	w      *wire
	closed atomic.Bool
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.w.bytes.Add(int64(n))
	c.w.reads.Add(1)
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.w.bytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Close() error {
	if c.closed.CompareAndSwap(false, true) {
		c.w.live.Add(-1)
	}
	return c.Conn.Close()
}
