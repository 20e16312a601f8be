package sweep

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/device"
	"repro/internal/pipeline"
	"repro/internal/testbed"
)

// benchGrid builds a seeded measurement grid shaped like a sweep job's:
// every device, both modes and a run of frame sizes.
func benchGrid(b testing.TB) []testbed.Request {
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

// instantRunner is an in-memory backend that answers every request at
// once with a zero measurement, so a benchmark over it times only the
// layers above the backend.
type instantRunner struct{}

func (instantRunner) Stream(_ context.Context, reqs []testbed.Request, emit func(int, testbed.Measurement) error) error {
	for j := range reqs {
		if err := emit(j, testbed.Measurement{}); err != nil {
			return err
		}
	}
	return nil
}

func (r instantRunner) Run(ctx context.Context, reqs []testbed.Request) ([]testbed.Measurement, error) {
	return collectStream(ctx, len(reqs), func(ctx context.Context, emit func(int, testbed.Measurement) error) error {
		return r.Stream(ctx, reqs, emit)
	})
}

// benchCells returns n distinct single-trial cells cycled from
// benchGrid: each copy gets its own seed, so no two cells share a key.
func benchCells(b *testing.B, n int) []testbed.Request {
	b.Helper()
	grid := benchGrid(b)
	reqs := make([]testbed.Request, n)
	for i := range reqs {
		reqs[i] = grid[i%len(grid)]
		reqs[i].Trials = 1
		reqs[i].Seed = int64(i)
	}
	return reqs
}

// BenchmarkCachedRunnerStream times the cache layer end to end over an
// instant in-memory backend: a 4000-cell grid streamed through a fresh
// runner ("cold": every cell misses and is delivered by the backend)
// and through a runner that already holds every cell ("warm": every
// cell hits). ns/op is per grid pass.
func BenchmarkCachedRunnerStream(b *testing.B) {
	reqs := benchCells(b, 4000)
	emit := func(int, testbed.Measurement) error { return nil }
	ctx := context.Background()
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		b.ReportMetric(float64(len(reqs)), "cells")
		for i := 0; i < b.N; i++ {
			if err := NewCachedRunner(instantRunner{}).Stream(ctx, reqs, emit); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		c := NewCachedRunner(instantRunner{})
		if err := c.Stream(ctx, reqs, emit); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ReportMetric(float64(len(reqs)), "cells")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.Stream(ctx, reqs, emit); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// statsSink keeps BenchmarkCachedRunnerStats's calls from being elided.
var statsSink CacheStats

// BenchmarkCachedRunnerStats times one Stats snapshot on a runner
// holding 1k and 100k completed entries; a flat ns/op across the two
// sizes shows the snapshot does not walk the entries.
func BenchmarkCachedRunnerStats(b *testing.B) {
	for _, n := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			c := NewCachedRunner(instantRunner{})
			err := c.Stream(context.Background(), benchCells(b, n), func(int, testbed.Measurement) error { return nil })
			if err != nil {
				b.Fatal(err)
			}
			if st := c.Stats(); st.Entries != n {
				b.Fatalf("runner holds %d entries, want %d", st.Entries, n)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				statsSink = c.Stats()
			}
		})
	}
}
