package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cnn"
	"repro/internal/device"
	"repro/internal/job"
	"repro/internal/server"
	"repro/internal/sweep"
)

// serverMix is the server-warm job mix. A fixed warm set of cells —
// every device, both modes, and seeded CNNs, sizes and clocks — is what
// most jobs draw their 8-cell grids from; about one job in ten swaps in
// two frame sizes no job has used, so its cells miss, are measured and
// are written to the disk cache beside the reads.
type serverMix struct {
	seed    int64
	devices []string
	cnns    []string
	sizes   []float64
	freqs   []float64
}

// cellsPerJob is the grid size of every job the mix generates:
// 2 devices × 2 modes × 1 CNN × 2 sizes × 1 clock.
const cellsPerJob = 8

func newServerMix(seed int64, tiny bool) *serverMix {
	rng := rand.New(rand.NewSource(seed))
	m := &serverMix{seed: seed}
	for _, d := range device.Catalog() {
		m.devices = append(m.devices, d.Name)
	}
	nCNN, nSize, nFreq := 2, 4, 2
	if tiny {
		m.devices, nCNN, nSize, nFreq = m.devices[:2], 1, 2, 1
	}
	cat := cnn.Catalog()
	for _, k := range rng.Perm(len(cat))[:nCNN] {
		m.cnns = append(m.cnns, cat[k].Name)
	}
	m.sizes = distinct(nSize, func() float64 { return 200 + float64(rng.Intn(1200))/2 })
	m.freqs = distinct(nFreq, func() float64 { return float64(10+rng.Intn(31)) / 20 })
	return m
}

func sweepJob(g job.Grid) job.Job {
	return job.Job{Kind: job.KindSweep, Spec: job.Default(), Grid: &g}
}

// universe is the warm-up job: every warm cell.
func (m *serverMix) universe() job.Job {
	return sweepJob(job.Grid{Devices: m.devices, Modes: []string{"local", "remote"}, CNNs: m.cnns, Sizes: m.sizes, Freqs: m.freqs})
}

// doc is job i of the mix; it depends only on the seed and i.
func (m *serverMix) doc(i int) job.Job {
	rng := rand.New(rand.NewSource(sweep.ShardSeed(m.seed, i)))
	dp := rng.Perm(len(m.devices))
	sp := rng.Perm(len(m.sizes))
	sizes := []float64{m.sizes[sp[0]], m.sizes[sp[1]]}
	if rng.Intn(10) == 0 {
		// Warm sizes stay below 800; these are unique to job i.
		sizes = []float64{1000 + float64(i), 1000.5 + float64(i)}
	}
	return sweepJob(job.Grid{
		Devices: []string{m.devices[dp[0]], m.devices[dp[1]]},
		Modes:   []string{"local", "remote"},
		CNNs:    []string{m.cnns[rng.Intn(len(m.cnns))]},
		Sizes:   sizes,
		Freqs:   []float64{m.freqs[rng.Intn(len(m.freqs))]},
	})
}

type jobServer struct {
	addr   string
	srv    *server.Server
	cached *sweep.CachedRunner
	disk   *sweep.DiskCache
}

// submitted is one timed job.
type submitted struct {
	idx int
	lat time.Duration
	err error
	sum [sha256.Size]byte
}

// runServerWarm feeds an in-process job server, built as `xrperf server`
// builds it (pool backend, default admission, fresh disk cache), from
// closed-loop Submit clients. The time goes to job decode, admission, the
// per-job suite build, the cache hit path and streamed rendering.
func runServerWarm(ctx context.Context, cfg config) (*report, error) {
	mix := newServerMix(cfg.Seed, cfg.Tiny)
	uni := mix.universe()
	rep := &report{layers: map[string]float64{}, detail: map[string]any{"cells_per_job": cellsPerJob, "clients": lanes()}}
	if cfg.Trace {
		rep.tracer = NewTracer()
	}
	tr := rep.tracer

	// References share one fit on a single-worker pool; the bytes equal
	// a one-shot run of each document because output depends only on
	// the document.
	rec := &recorder{inner: &sweep.PoolRunner{Workers: 1}}
	refSuite, err := uni.SuiteFor(sweep.NewCachedRunner(rec))
	if err != nil {
		return nil, err
	}
	refOut := func(j job.Job) ([]byte, error) {
		var out bytes.Buffer
		if err := j.Run(ctx, refSuite, &out); err != nil {
			return nil, fmt.Errorf("reference: %w", err)
		}
		return out.Bytes(), nil
	}
	uniRef, err := refOut(uni)
	if err != nil {
		return nil, err
	}
	warmReqs := append(rec.reqs[:0:0], rec.reqs...)
	rep.detail["warm_cells"] = len(warmReqs)

	w := &wire{}
	k := 0
	setups, js, teardown, err := timeSetups(cfg, func() (*jobServer, func(), error) {
		k++
		dir := filepath.Join(cfg.Scratch, fmt.Sprintf("cache-%d", k))
		disk, err := sweep.OpenDiskCache(dir)
		if err != nil {
			return nil, nil, err
		}
		cached := sweep.NewCachedRunner(traceBackend(tr, &sweep.PoolRunner{}), sweep.WithDiskCache(disk))
		srv, err := server.New(server.Config{Runner: cached})
		if err != nil {
			return nil, nil, err
		}
		ln, err := w.listen()
		if err != nil {
			return nil, nil, err
		}
		sctx, cancel := context.WithCancel(ctx)
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = srv.Serve(sctx, ln)
		}()
		down := func() {
			cancel()
			<-done
		}
		js := &jobServer{addr: ln.Addr().String(), srv: srv, cached: cached, disk: disk}
		var out bytes.Buffer
		if err := server.Submit(ctx, js.addr, uni, &out); err != nil {
			down()
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
		if !bytes.Equal(out.Bytes(), uniRef) {
			rep.mismatch("warm-up job differs from its one-shot reference")
		}
		return js, down, nil
	})
	if err != nil {
		return nil, err
	}
	defer teardown()
	rep.setups = setups

	// Cache and wire activity is counted over the traced slices only.
	var next atomic.Int64
	var all []submitted
	var cacheTraced sweep.CacheStats
	var wireBytes, wireReads int64
	rep.base, rep.traced, err = timed(cfg, func(traced bool, d time.Duration) (*phase, error) {
		if tr != nil {
			tr.off.Store(!traced)
		}
		c0, b0, r0 := js.cached.Stats(), w.bytes.Load(), w.reads.Load()
		p, done, err := closedLoop(ctx, tr, d, js.addr, mix, &next)
		all = append(all, done...)
		if traced {
			c1 := js.cached.Stats()
			cacheTraced.Hits += c1.Hits - c0.Hits
			cacheTraced.DiskHits += c1.DiskHits - c0.DiskHits
			cacheTraced.Misses += c1.Misses - c0.Misses
			wireBytes += w.bytes.Load() - b0
			wireReads += w.reads.Load() - r0
		}
		return p, err
	})
	if err != nil {
		return nil, err
	}
	if cfg.Trace {
		tr.off.Store(false)
		cells := float64(rep.traced.ops * cellsPerJob)
		rep.layers["testbed.wire.bytes_per_req"] = float64(wireBytes) / cells
		rep.layers["testbed.wire.reads_per_req"] = float64(wireReads) / cells
		rep.layers["sweep.cache.hit_frac"] = hitFrac(cacheTraced)
		if err := replayServerJobs(ctx, tr, js, mix, refOut, rep, cfg.Tiny); err != nil {
			return nil, err
		}
	}

	for _, s := range all {
		if s.err != nil {
			continue
		}
		want, err := refOut(mix.doc(s.idx))
		if err != nil {
			return nil, err
		}
		if sha256.Sum256(want) != s.sum {
			rep.mismatch("job %d: streamed bytes differ from its one-shot reference", s.idx)
		}
	}
	if !cfg.Trace {
		return rep, nil
	}

	st := js.srv.Stats()
	rep.layers["server.queue_wait_ms"] = 0
	if st.MuPerMS > 0 {
		rep.layers["server.queue_wait_ms"] = st.ObservedSojournMS - 1/st.MuPerMS
	}
	rep.layers["server.rho"] = st.Rho
	rep.layers["server.rejected"] = float64(st.Rejected)
	ds := js.disk.Stats()
	rep.layers["sweep.disk.stores"] = float64(ds.Stores)
	rep.layers["sweep.disk.errors"] = float64(ds.LoadErrors + ds.StoreErrors)
	rep.layers["sweep.net.steals"] = 0
	var docs [][]byte
	for i := 0; i < 64; i++ {
		raw, err := json.Marshal(mix.doc(i))
		if err != nil {
			return nil, err
		}
		docs = append(docs, raw)
	}
	if err := replayLayers(ctx, tr, docs, warmReqs, len(warmReqs), filepath.Join(cfg.Scratch, "replay"), rep.layers); err != nil {
		return nil, err
	}
	spanLayers(tr.Spans(), rep.layers)
	return rep, nil
}

// closedLoop runs one Submit client per lane until d has elapsed; each
// client sends its next job only after the previous one is done. Job
// indices continue from next, so no slice repeats a fresh cell of
// another.
func closedLoop(ctx context.Context, tr *Tracer, d time.Duration, addr string, mix *serverMix, next *atomic.Int64) (*phase, []submitted, error) {
	var (
		mu       sync.Mutex
		done     []submitted
		inflight atomic.Int64
		over     atomic.Bool
		wg       sync.WaitGroup
	)
	mark := markMem()
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < lanes(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out bytes.Buffer
			for ctx.Err() == nil && time.Now().Before(deadline) {
				idx := int(next.Add(1) - 1)
				out.Reset()
				if inflight.Add(1) > int64(lanes()) {
					over.Store(true)
				}
				_, end := tr.Begin("server.submit", 0, int64(idx), cellsPerJob)
				t0 := time.Now()
				err := server.Submit(ctx, addr, mix.doc(idx), &out)
				lat := time.Since(t0)
				end()
				inflight.Add(-1)
				mu.Lock()
				done = append(done, submitted{idx: idx, lat: lat, err: err, sum: sha256.Sum256(out.Bytes())})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if over.Load() {
		return nil, nil, fmt.Errorf("load bound: more than %d jobs in flight", lanes())
	}
	p := &phase{window: time.Since(start), mem: mark.since()}
	var busy int
	for _, s := range done {
		p.attempted++
		if s.err != nil {
			p.failed++
			if errors.Is(s.err, server.ErrBusy) {
				busy++
			}
			continue
		}
		p.ops++
		p.jobs = append(p.jobs, s.lat)
	}
	if p.ops == 0 {
		return nil, nil, fmt.Errorf("every one of %d jobs failed (%d busy): %v", p.attempted, busy, done[0].err)
	}
	return p, done, nil
}

// replayServerJobs replays warm jobs of the mix in process on the
// server's own cached runner, with spans around decode and validation,
// the suite build, and the cache and emit layers the server does not
// expose.
func replayServerJobs(ctx context.Context, tr *Tracer, js *jobServer, mix *serverMix, refOut func(job.Job) ([]byte, error), rep *report, tiny bool) error {
	n := 16
	if tiny {
		n = 2
	}
	for i := 0; i < n; i++ {
		d := mix.doc(i)
		raw, err := json.Marshal(d)
		if err != nil {
			return err
		}
		req := int64(-1 - i)
		id, end := tr.Begin("job.run", 0, req, cellsPerJob)
		_, endDecode := tr.Begin("job.decode", id, req, 1)
		j, err := job.Decode(raw)
		if err == nil {
			err = j.Validate()
		}
		endDecode()
		if err != nil {
			end()
			return fmt.Errorf("replay job %d: %w", i, err)
		}
		_, endBuild := tr.Begin("experiments.suite_build", id, req, 1)
		suite, err := j.SuiteFor(js.cached)
		endBuild()
		if err != nil {
			end()
			return fmt.Errorf("replay job %d: %w", i, err)
		}
		suite.Runner = traceLayers(tr, js.cached)
		j.Stream = true
		var out bytes.Buffer
		err = j.Run(context.WithValue(withReq(ctx, req), spanKey{}, id), suite, &out)
		end()
		if err != nil {
			return fmt.Errorf("replay job %d: %w", i, err)
		}
		want, err := refOut(d)
		if err != nil {
			return err
		}
		if !bytes.Equal(out.Bytes(), want) {
			rep.mismatch("replayed job %d differs from its one-shot reference", i)
		}
	}
	return nil
}
