package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/experiments"
	"repro/internal/job"
	"repro/internal/sweep"
)

// populationDoc generates the population-proc job: the CLI's default
// population scenario (vehicular, 120 frames) under the seed, cut into
// enough shards that each worker takes many of them, so one straggling
// shard cannot set a pass's time. The report is byte-identical for any
// shard size.
func populationDoc(seed int64, tiny bool) job.Job {
	users, shard := 800, 20
	if tiny {
		users, shard = 8, 2
	}
	spec := job.Default()
	spec.Seed = seed
	return job.Job{
		Kind: job.KindPopulation,
		Spec: spec,
		Population: &job.Population{
			Scenario: "vehicular",
			Users:    users,
			Frames:   120,
			Shard:    shard,
		},
	}
}

type procFleet struct {
	pr    *sweep.ProcRunner
	suite *experiments.Suite
}

// runPopulationProc runs the population job once per pass on a fresh
// cache over a ProcRunner whose worker subprocesses were spawned in
// set-up. The time goes to the session kernel and the sketch merge; the
// wire carries a few KB per shard, so this workload is the control for
// codec and dispatcher changes.
func runPopulationProc(ctx context.Context, cfg config) (*report, error) {
	doc := populationDoc(cfg.Seed, cfg.Tiny)
	users := doc.Population.Users
	rep := &report{layers: map[string]float64{}, detail: map[string]any{
		"users_per_job": users, "shard_users": doc.Population.Shard, "procs": lanes(),
	}}
	if cfg.Trace {
		rep.tracer = NewTracer()
	}
	tr := rep.tracer
	ref, reqs, err := reference(ctx, doc)
	if err != nil {
		return nil, err
	}
	rep.detail["shards_per_job"] = len(reqs)

	setups, fl, teardown, err := timeSetups(cfg, func() (*procFleet, func(), error) {
		pr := &sweep.ProcRunner{Procs: lanes()}
		down := func() { _ = pr.Close() }
		_, end := tr.Begin("experiments.suite_build", 0, 0, 1)
		suite, err := doc.SuiteFor(sweep.NewCachedRunner(pr))
		end()
		if err != nil {
			down()
			return nil, nil, err
		}
		// One shard per worker spawns and handshakes every worker
		// before timing.
		if _, err := pr.Run(ctx, reqs[:min(len(reqs), lanes())]); err != nil {
			down()
			return nil, nil, fmt.Errorf("spawn workers: %w", err)
		}
		return &procFleet{pr: pr, suite: suite}, down, nil
	})
	if err != nil {
		return nil, err
	}
	defer teardown()
	rep.setups = setups

	var out bytes.Buffer
	var cache sweep.CacheStats
	pass := 0
	step := func(tr *Tracer) func(ctx context.Context) (int, error) {
		return func(ctx context.Context) (int, error) {
			pass++
			i := int64(pass)
			cached := sweep.NewCachedRunner(traceBackend(tr, fl.pr))
			fl.suite.Runner = traceLayers(tr, cached)
			out.Reset()
			id, end := tr.Begin("job.run", 0, i, len(reqs))
			err := doc.Run(context.WithValue(withReq(ctx, i), spanKey{}, id), fl.suite, &out)
			end()
			if err != nil {
				return 0, err
			}
			if !bytes.Equal(out.Bytes(), ref) {
				rep.mismatch("pass %d: report differs from the pool-1 reference (%d vs %d bytes)", i, out.Len(), len(ref))
			}
			if tr != nil {
				st := cached.Stats()
				cache.Hits += st.Hits + st.DiskHits
				cache.Misses += st.Misses
			}
			return users, nil
		}
	}

	rep.base, rep.traced, err = timed(cfg, func(traced bool, d time.Duration) (*phase, error) {
		if traced {
			return passes(ctx, d, step(tr))
		}
		return passes(ctx, d, step(nil))
	})
	if err != nil {
		return nil, err
	}
	if !cfg.Trace {
		return rep, nil
	}

	// The proc backend speaks the frame protocol over pipes, which the
	// listener wrapper cannot see; the codec replay covers its bytes.
	rep.layers["testbed.wire.bytes_per_req"] = 0
	rep.layers["testbed.wire.reads_per_req"] = 0
	rep.layers["sweep.net.steals"] = 0
	rep.layers["sweep.cache.hit_frac"] = hitFrac(cache)
	rep.layers["sweep.disk.stores"] = 0
	rep.layers["sweep.disk.errors"] = 0
	serverless(rep.layers)
	raw, err := json.Marshal(doc)
	if err != nil {
		return nil, err
	}
	if err := replayLayers(ctx, tr, [][]byte{raw}, reqs, 2*lanes(), filepath.Join(cfg.Scratch, "replay"), rep.layers); err != nil {
		return nil, err
	}
	spanLayers(tr.Spans(), rep.layers)
	return rep, nil
}
