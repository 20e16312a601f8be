package sweep

import (
	"context"
	"testing"

	"repro/internal/device"
	"repro/internal/pipeline"
	"repro/internal/testbed"
)

// benchGrid builds a seeded measurement grid shaped like a sweep job's:
// every device, both modes and a run of frame sizes.
func benchGrid(b *testing.B) []testbed.Request {
	b.Helper()
	var reqs []testbed.Request
	for _, dev := range device.Catalog() {
		for _, mode := range []pipeline.InferenceMode{pipeline.ModeLocal, pipeline.ModeRemote} {
			for size := 300.0; size < 700; size += 50 {
				sc, err := pipeline.NewScenario(dev, pipeline.WithMode(mode), pipeline.WithFrameSize(size))
				if err != nil {
					b.Fatal(err)
				}
				req := testbed.Request{Scenario: sc, Trials: 30, NoiseRel: testbed.DefaultNoiseRel}
				if req.Seed, err = req.ContentSeed(42); err != nil {
					b.Fatal(err)
				}
				reqs = append(reqs, req)
			}
		}
	}
	return reqs
}

// BenchmarkCachedRunnerClassify times the cache's per-request key work
// without a backend or disk: "miss" classifies a grid on a fresh runner,
// where every cell registers a new entry; "hit" classifies it again on a
// runner that already holds every cell. ns/op is per grid; the grid
// size is reported as cells.
func BenchmarkCachedRunnerClassify(b *testing.B) {
	reqs := benchGrid(b)
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		b.ReportMetric(float64(len(reqs)), "cells")
		for i := 0; i < b.N; i++ {
			NewCachedRunner(nil).classify(reqs)
		}
	})
	b.Run("hit", func(b *testing.B) {
		c := NewCachedRunner(nil)
		c.classify(reqs)
		b.ReportAllocs()
		b.ReportMetric(float64(len(reqs)), "cells")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.classify(reqs)
		}
	})
}

// benchDiskCells measures the benchGrid cells once and fingerprints
// them, for the disk cache benchmarks.
func benchDiskCells(b *testing.B) ([]testbed.Request, []string, []testbed.Measurement) {
	b.Helper()
	reqs := benchGrid(b)
	fps := make([]string, len(reqs))
	for i, r := range reqs {
		fp, err := r.Fingerprint()
		if err != nil {
			b.Fatal(err)
		}
		fps[i] = fp
	}
	ms, err := (&PoolRunner{}).Run(context.Background(), reqs)
	if err != nil {
		b.Fatal(err)
	}
	return reqs, fps, ms
}

// BenchmarkDiskCachePut times one persisted entry per op (encode, temp
// file, rename) in a temporary directory, cycling over the grid's cells.
func BenchmarkDiskCachePut(b *testing.B) {
	reqs, fps, ms := benchDiskCells(b)
	d, err := OpenDiskCache(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(reqs)
		if err := d.Put(fps[k], reqs[k].Seed, ms[k]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiskCacheGet times one disk hit per op (read, decode, key
// check) in a temporary directory holding every grid cell.
func BenchmarkDiskCacheGet(b *testing.B) {
	reqs, fps, ms := benchDiskCells(b)
	d, err := OpenDiskCache(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	for k := range reqs {
		if err := d.Put(fps[k], reqs[k].Seed, ms[k]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(reqs)
		if _, ok := d.Get(fps[k], reqs[k].Seed); !ok {
			b.Fatalf("cell %d missed", k)
		}
	}
}
