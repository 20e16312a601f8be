package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cnn"
	"repro/internal/experiments"
	"repro/internal/job"
	"repro/internal/sweep"
	"repro/internal/testbed"
)

// gridDoc generates the grid-net-cold sweep job from the seed: every
// device, both modes, and seeded CNNs, frame sizes and clocks. Clocks
// stay at or below 2 GHz, the lowest device maximum, so no clock clamps
// onto another and every cell is distinct.
func gridDoc(seed int64, tiny bool) job.Job {
	rng := rand.New(rand.NewSource(seed))
	devices, nCNN, nSize, nFreq := []string{"all"}, 5, 10, 5
	if tiny {
		devices, nCNN, nSize, nFreq = []string{"XR1", "XR6"}, 1, 2, 2
	}
	cat := cnn.Catalog()
	var cnns []string
	for _, k := range rng.Perm(len(cat))[:nCNN] {
		cnns = append(cnns, cat[k].Name)
	}
	return job.Job{
		Kind: job.KindSweep,
		Spec: job.Default(),
		Grid: &job.Grid{
			Devices: devices,
			Modes:   []string{"local", "remote"},
			CNNs:    cnns,
			Sizes:   distinct(nSize, func() float64 { return 200 + float64(rng.Intn(1400))/2 }),
			Freqs:   distinct(nFreq, func() float64 { return float64(10+rng.Intn(31)) / 20 }),
		},
		Stream: true,
	}
}

// distinct draws n different values.
func distinct(n int, draw func() float64) []float64 {
	seen := map[float64]bool{}
	var out []float64
	for len(out) < n {
		if v := draw(); !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

type netFleet struct {
	nr    *sweep.NetRunner
	suite *experiments.Suite
	// wire counts this fleet's connections only, not those of a
	// torn-down set-up whose sockets are still closing.
	wire *wire
}

// runGridNetCold sweeps one grid of unique cells per pass, each pass on a
// fresh cache over a NetRunner to loopback serve nodes dialled in set-up,
// so every cell crosses split, encode, frame I/O, node-side measure,
// decode and ordered merge.
func runGridNetCold(ctx context.Context, cfg config) (*report, error) {
	doc := gridDoc(cfg.Seed, cfg.Tiny)
	grid, err := doc.Grid.Build()
	if err != nil {
		return nil, err
	}
	size := grid.Size()
	rep := &report{layers: map[string]float64{}, detail: map[string]any{"cells_per_job": size, "nodes": lanes()}}
	if cfg.Trace {
		rep.tracer = NewTracer()
	}
	tr := rep.tracer
	ref, reqs, err := reference(ctx, doc)
	if err != nil {
		return nil, err
	}

	setups, fl, teardown, err := timeSetups(cfg, func() (*netFleet, func(), error) {
		w := &wire{}
		nctx, cancel := context.WithCancel(ctx)
		var wg sync.WaitGroup
		// The dispatcher runs nodes × ConnsPerNode sessions, each with
		// at most one batch stream in flight: lanes() in all. Weighted
		// checkout may still park an idle connection to each node per
		// session, so open sockets can reach nodes × sessions; the
		// detail line records the peak.
		nr := &sweep.NetRunner{ConnsPerNode: 1}
		down := func() {
			_ = nr.Close()
			cancel()
			wg.Wait()
		}
		for i := 0; i < lanes(); i++ {
			ln, err := w.listen()
			if err != nil {
				down()
				return nil, nil, err
			}
			nr.Nodes = append(nr.Nodes, ln.Addr().String())
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = testbed.ServeListener(nctx, ln, nil)
			}()
		}
		_, end := tr.Begin("experiments.suite_build", 0, 0, 1)
		suite, err := doc.SuiteFor(sweep.NewCachedRunner(nr))
		end()
		if err != nil {
			down()
			return nil, nil, err
		}
		// Dial every connection before timing.
		if _, err := nr.Run(ctx, reqs[:min(len(reqs), 4*lanes())]); err != nil {
			down()
			return nil, nil, fmt.Errorf("dial nodes: %w", err)
		}
		return &netFleet{nr: nr, suite: suite, wire: w}, down, nil
	})
	if err != nil {
		return nil, err
	}
	defer teardown()
	rep.setups = setups
	w := fl.wire

	var out bytes.Buffer
	var cache sweep.CacheStats
	pass := 0
	step := func(tr *Tracer) func(ctx context.Context) (int, error) {
		return func(ctx context.Context) (int, error) {
			pass++
			i := int64(pass)
			cached := sweep.NewCachedRunner(traceBackend(tr, fl.nr))
			fl.suite.Runner = traceLayers(tr, cached)
			out.Reset()
			id, end := tr.Begin("job.run", 0, i, size)
			err := doc.Run(context.WithValue(withReq(ctx, i), spanKey{}, id), fl.suite, &out)
			end()
			if err != nil {
				return 0, err
			}
			if !bytes.Equal(out.Bytes(), ref) {
				rep.mismatch("pass %d: table differs from the pool-1 reference (%d vs %d bytes)", i, out.Len(), len(ref))
			}
			st := cached.Stats()
			if st.Misses != int64(size) || st.Hits != 0 || st.DiskHits != 0 {
				rep.mismatch("pass %d: %d misses and %d hits, want all %d cells to miss", i, st.Misses, st.Hits, size)
			}
			if tr != nil {
				cache.Hits += st.Hits + st.DiskHits
				cache.Misses += st.Misses
			}
			return size, nil
		}
	}

	// Wire bytes and steals are counted over the traced slices only.
	var wireBytes, wireReads, steals int64
	rep.base, rep.traced, err = timed(cfg, func(traced bool, d time.Duration) (*phase, error) {
		if !traced {
			return passes(ctx, d, step(nil))
		}
		b0, r0, s0 := w.bytes.Load(), w.reads.Load(), fl.nr.Steals()
		p, err := passes(ctx, d, step(tr))
		wireBytes += w.bytes.Load() - b0
		wireReads += w.reads.Load() - r0
		steals += fl.nr.Steals() - s0
		return p, err
	})
	if err != nil {
		return nil, err
	}
	rep.detail["conns_accepted"] = w.accepted.Load()
	rep.detail["conns_peak"] = w.peak.Load()
	if !cfg.Trace {
		return rep, nil
	}

	ops := float64(rep.traced.ops)
	rep.layers["testbed.wire.bytes_per_req"] = float64(wireBytes) / ops
	rep.layers["testbed.wire.reads_per_req"] = float64(wireReads) / ops
	rep.layers["sweep.net.steals"] = float64(steals)
	rep.layers["sweep.cache.hit_frac"] = hitFrac(cache)
	rep.layers["sweep.disk.stores"] = 0
	rep.layers["sweep.disk.errors"] = 0
	serverless(rep.layers)
	raw, err := json.Marshal(doc)
	if err != nil {
		return nil, err
	}
	if err := replayLayers(ctx, tr, [][]byte{raw}, reqs, 512, filepath.Join(cfg.Scratch, "replay"), rep.layers); err != nil {
		return nil, err
	}
	spanLayers(tr.Spans(), rep.layers)
	return rep, nil
}
