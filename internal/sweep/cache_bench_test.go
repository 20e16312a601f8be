package sweep

import (
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
