package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/job"
	"repro/internal/sweep"
	"repro/internal/testbed"
)

// report is what one workload measured.
type report struct {
	setups []time.Duration
	// base is the untraced window; traced is the traced one (trace runs
	// only).
	base, traced *phase
	// layers holds the per-layer metrics the workload measured itself;
	// execute adds the runtime and tracing ones.
	layers     map[string]float64
	tracer     *Tracer
	detail     map[string]any
	mismatches []string
}

func (r *report) mismatch(format string, args ...any) {
	if len(r.mismatches) < 20 {
		r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
	}
}

// phase is one timed window, or the sum of several slices of one.
type phase struct {
	// jobs holds the time of every completed job: one sweep or
	// population pass, or one submitted job from dial to done frame.
	jobs []time.Duration
	// rates holds each pass's ops per second; a closed-loop window has
	// none and reports ops over the window instead.
	rates []float64
	// ops counts the cells, users or jobs the window delivered.
	ops               int
	attempted, failed int
	window            time.Duration
	mem               memDelta
}

// rate is ops per second: the median pass rate, or ops over the window.
func (p *phase) rate() float64 {
	if len(p.rates) > 0 {
		return median(p.rates)
	}
	return float64(p.ops) / p.window.Seconds()
}

func (p *phase) add(o *phase) {
	p.jobs = append(p.jobs, o.jobs...)
	p.rates = append(p.rates, o.rates...)
	p.ops += o.ops
	p.attempted += o.attempted
	p.failed += o.failed
	p.window += o.window
	p.mem.alloc += o.mem.alloc
	p.mem.gcs += o.mem.gcs
	p.mem.pause += o.mem.pause
}

func (p *phase) summary() map[string]any {
	return map[string]any{
		"jobs":       len(p.jobs),
		"ops":        p.ops,
		"ops_per_s":  p.rate(),
		"job_p50_ms": percentile(ms(p.jobs), 0.5),
		"job_p90_ms": percentile(ms(p.jobs), 0.9),
		"window_s":   p.window.Seconds(),
		"failed":     p.failed,
	}
}

// traceSlices is how many untraced and traced slices a traced run
// alternates between, so a drift in machine speed lands on both halves
// alike and the overhead estimate does not absorb it.
const traceSlices = 8

// timed runs a workload's timed window. An untraced run is one window;
// a traced run alternates untraced and traced slices of it, and run
// reports which kind each slice is.
func timed(cfg config, run func(traced bool, d time.Duration) (*phase, error)) (base, traced *phase, err error) {
	if !cfg.Trace {
		base, err = run(false, cfg.Window)
		return base, nil, err
	}
	base, traced = &phase{}, &phase{}
	slice := cfg.Window / (2 * traceSlices)
	for k := 0; k < 2*traceSlices; k++ {
		on := k%2 == 1
		p, err := run(on, slice)
		if err != nil {
			return nil, nil, err
		}
		if on {
			traced.add(p)
		} else {
			base.add(p)
		}
	}
	return base, traced, nil
}

// memDelta is the Go runtime's allocation and GC activity over a window.
type memDelta struct {
	alloc uint64
	gcs   uint32
	pause time.Duration
}

type memMark runtime.MemStats

func markMem() *memMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return (*memMark)(&m)
}

func (a *memMark) since() memDelta {
	b := markMem()
	return memDelta{
		alloc: b.TotalAlloc - a.TotalAlloc,
		gcs:   b.NumGC - a.NumGC,
		pause: time.Duration(b.PauseTotalNs - a.PauseTotalNs),
	}
}

// passes runs step back to back, at least once, until d has elapsed.
// Each step is one job delivering ops units.
func passes(ctx context.Context, d time.Duration, step func(ctx context.Context) (ops int, err error)) (*phase, error) {
	p := &phase{}
	mark := markMem()
	start := time.Now()
	for p.attempted == 0 || time.Since(start) < d {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p.attempted++
		t0 := time.Now()
		n, err := step(ctx)
		took := time.Since(t0)
		if err != nil {
			p.failed++
			continue
		}
		p.jobs = append(p.jobs, took)
		p.ops += n
		p.rates = append(p.rates, float64(n)/took.Seconds())
	}
	p.window = time.Since(start)
	p.mem = mark.since()
	if len(p.rates) == 0 {
		return nil, fmt.Errorf("every one of %d passes failed", p.attempted)
	}
	return p, nil
}

// timeSetups sets the system up cfg.Setups times, tearing down all but
// the last, and returns each set-up's duration with the kept instance.
func timeSetups[T any](cfg config, setup func() (T, func(), error)) ([]time.Duration, T, func(), error) {
	var ds []time.Duration
	for k := 0; ; k++ {
		t0 := time.Now()
		inst, teardown, err := setup()
		if err != nil {
			var zero T
			return nil, zero, nil, fmt.Errorf("set-up %d: %w", k+1, err)
		}
		ds = append(ds, time.Since(t0))
		if k+1 == cfg.Setups {
			return ds, inst, teardown, nil
		}
		teardown()
	}
}

// reference renders a job one-shot on a single-worker in-process pool —
// the output every workload must reproduce byte for byte — and records
// the requests the job hands its backend.
func reference(ctx context.Context, j job.Job) ([]byte, []testbed.Request, error) {
	rec := &recorder{inner: &sweep.PoolRunner{Workers: 1}}
	suite, err := j.SuiteFor(sweep.NewCachedRunner(rec))
	if err != nil {
		return nil, nil, err
	}
	j.Stream = false
	var out bytes.Buffer
	if err := j.Run(ctx, suite, &out); err != nil {
		return nil, nil, fmt.Errorf("reference: %w", err)
	}
	return out.Bytes(), rec.reqs, nil
}

// recorder captures the requests a reference run hands its backend, so
// the traced run can replay the workload's own requests layer by layer.
type recorder struct {
	inner sweep.Runner
	mu    sync.Mutex
	reqs  []testbed.Request
}

func (r *recorder) Run(ctx context.Context, reqs []testbed.Request) ([]testbed.Measurement, error) {
	r.add(reqs)
	return r.inner.Run(ctx, reqs)
}

func (r *recorder) Stream(ctx context.Context, reqs []testbed.Request, emit func(idx int, m testbed.Measurement) error) error {
	r.add(reqs)
	return r.inner.Stream(ctx, reqs, emit)
}

func (r *recorder) add(reqs []testbed.Request) {
	r.mu.Lock()
	r.reqs = append(r.reqs, reqs...)
	r.mu.Unlock()
}

// replayLayers times the layers beneath the dispatcher on the workload's
// own inputs, one goroutine, with a span per call: job document decode
// and validation, Executor.DoBatch at the default batch size, the binary
// codec on the resulting WireBatch/WireBatchResult frames, and DiskCache
// Put/Get on the requests' cache keys in a scratch store. maxReqs caps
// the replayed requests.
func replayLayers(ctx context.Context, tr *Tracer, docs [][]byte, reqs []testbed.Request, maxReqs int, scratch string, layers map[string]float64) error {
	for round := 0; round < 20; round++ {
		for i, doc := range docs {
			_, end := tr.Begin("job.decode", 0, int64(i), 1)
			j, err := job.Decode(doc)
			if err == nil {
				err = j.Validate()
			}
			end()
			if err != nil {
				return fmt.Errorf("replay decode: %w", err)
			}
		}
	}

	if len(reqs) > maxReqs {
		reqs = reqs[:maxReqs]
	}
	exec := testbed.NewExecutor(nil)
	var batches []testbed.WireBatch
	var results []testbed.WireBatchResult
	for off := 0; off < len(reqs); off += sweep.DefaultBatch {
		b := testbed.WireBatch{ID: off, Reqs: reqs[off:min(off+sweep.DefaultBatch, len(reqs))]}
		_, end := tr.Begin("testbed.exec.do_batch", 0, int64(off), len(b.Reqs))
		items := exec.DoBatch(ctx, b.Reqs)
		end()
		for k, it := range items {
			if it.Err != "" {
				return fmt.Errorf("replay request %d: %s", off+k, it.Err)
			}
		}
		batches = append(batches, b)
		results = append(results, testbed.WireBatchResult{ID: off, Items: items})
	}

	// One untraced round counts the codec's allocations, so the spans'
	// own do not inflate them; timed rounds then run until enough time
	// has passed for the per-request figures to settle.
	var encoded, allocs int64
	for k := range batches {
		before := mallocs()
		bb, rb, err := encodeFrames(batches[k], results[k])
		if err == nil {
			err = decodeFrames(bb, rb, len(batches[k].Reqs))
		}
		allocs += int64(mallocs() - before)
		if err != nil {
			return fmt.Errorf("replay codec: batch %d: %w", batches[k].ID, err)
		}
		encoded += int64(len(bb) + len(rb))
	}
	layers["testbed.codec.allocs_per_req"] = float64(allocs) / float64(len(reqs))
	layers["testbed.codec.bytes_per_req"] = float64(encoded) / float64(len(reqs))
	codecStart := time.Now()
	for round := 0; round < 3 || time.Since(codecStart) < 200*time.Millisecond; round++ {
		for k := range batches {
			id, n := int64(batches[k].ID), len(batches[k].Reqs)
			_, end := tr.Begin("testbed.codec.encode", 0, id, n)
			bb, rb, err := encodeFrames(batches[k], results[k])
			end()
			if err != nil {
				return fmt.Errorf("replay codec: batch %d: %w", id, err)
			}
			_, end = tr.Begin("testbed.codec.decode", 0, id, n)
			err = decodeFrames(bb, rb, n)
			end()
			if err != nil {
				return fmt.Errorf("replay codec: batch %d: %w", id, err)
			}
		}
	}

	disk, err := sweep.OpenDiskCache(scratch)
	if err != nil {
		return fmt.Errorf("replay disk cache: %w", err)
	}
	for k := range batches {
		for i, req := range batches[k].Reqs {
			fp, err := req.Fingerprint()
			if err != nil {
				return fmt.Errorf("replay fingerprint: %w", err)
			}
			_, end := tr.Begin("sweep.disk.put", 0, int64(batches[k].ID+i), 1)
			err = disk.Put(fp, req.Seed, results[k].Items[i].M)
			end()
			if err != nil {
				return fmt.Errorf("replay disk put: %w", err)
			}
			_, end = tr.Begin("sweep.disk.get", 0, int64(batches[k].ID+i), 1)
			_, ok := disk.Get(fp, req.Seed)
			end()
			if !ok {
				return fmt.Errorf("replay disk get: entry %d not found after put", batches[k].ID+i)
			}
		}
	}
	return nil
}

// encodeFrames encodes a batch and its result with the binary codec.
func encodeFrames(b testbed.WireBatch, r testbed.WireBatchResult) ([]byte, []byte, error) {
	bb, err := testbed.EncodeBinary(b)
	if err != nil {
		return nil, nil, err
	}
	rb, err := testbed.EncodeBinary(r)
	return bb, rb, err
}

// decodeFrames decodes both frames and checks they carry n items each.
func decodeFrames(bb, rb []byte, n int) error {
	var b testbed.WireBatch
	var r testbed.WireBatchResult
	if err := testbed.DecodeBinary(bb, &b); err != nil {
		return err
	}
	if err := testbed.DecodeBinary(rb, &r); err != nil {
		return err
	}
	if len(b.Reqs) != n || len(r.Items) != n {
		return fmt.Errorf("round-tripped %d requests and %d items, want %d", len(b.Reqs), len(r.Items), n)
	}
	return nil
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// spanLayers derives the span-based per-layer metrics: for each span name
// the total duration per request it carried, plus the cache layer's self
// time (its span minus the backend and emit spans beneath it).
func spanLayers(spans []Span, layers map[string]float64) {
	type agg struct {
		dur time.Duration
		n   int
	}
	by := map[string]*agg{}
	self := SelfTimes(spans)
	var cacheSelf time.Duration
	var cacheReqs int
	calls := map[string]int{}
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.dur += s.Dur()
		a.n += max(s.N, 1)
		calls[s.Name]++
		if s.Name == "sweep.cache.stream" {
			cacheSelf += self[s.ID]
			cacheReqs += s.N
		}
	}
	per := func(name string, unit time.Duration) float64 {
		a := by[name]
		if a == nil || a.n == 0 {
			return 0
		}
		return float64(a.dur) / float64(a.n) / float64(unit)
	}
	layers["job.decode_us"] = per("job.decode", time.Microsecond)
	layers["experiments.suite_build_ms"] = per("experiments.suite_build", time.Millisecond)
	layers["sweep.emit_us_per_req"] = per("sweep.emit", time.Microsecond)
	layers["testbed.exec.us_per_req"] = per("testbed.exec.do_batch", time.Microsecond)
	layers["testbed.codec.encode_ns_per_req"] = per("testbed.codec.encode", time.Nanosecond)
	layers["testbed.codec.decode_ns_per_req"] = per("testbed.codec.decode", time.Nanosecond)
	layers["sweep.disk.get_us"] = per("sweep.disk.get", time.Microsecond)
	layers["sweep.disk.put_us"] = per("sweep.disk.put", time.Microsecond)
	if n := calls["sweep.backend.stream"]; n > 0 {
		layers["sweep.backend.stream_ms"] = float64(by["sweep.backend.stream"].dur) / float64(n) / float64(time.Millisecond)
	} else {
		layers["sweep.backend.stream_ms"] = 0
	}
	layers["sweep.cache.self_us_per_req"] = 0
	if cacheReqs > 0 {
		layers["sweep.cache.self_us_per_req"] = float64(cacheSelf) / float64(cacheReqs) / float64(time.Microsecond)
	}
}

// hitFrac is the share of classified requests the cache served without a
// backend measurement.
func hitFrac(st sweep.CacheStats) float64 {
	hits := st.Hits + st.DiskHits
	if total := hits + st.Misses; total > 0 {
		return float64(hits) / float64(total)
	}
	return 0
}

// serverless fills the per-layer metrics that only a job server has.
func serverless(layers map[string]float64) {
	layers["server.queue_wait_ms"] = 0
	layers["server.rho"] = 0
	layers["server.rejected"] = 0
}
