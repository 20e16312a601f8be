package testbed

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/cnn"
	"repro/internal/device"
	"repro/internal/pipeline"
)

// benchRequests builds a 16-request batch — the dispatcher's default
// batch size — of 30-trial measure requests over every device, both
// modes and several frame sizes.
func benchRequests(b testing.TB) []Request {
	b.Helper()
	var reqs []Request
	for i := 0; len(reqs) < 16; i++ {
		devs := device.Catalog()
		mode := pipeline.ModeLocal
		if i%2 == 1 {
			mode = pipeline.ModeRemote
		}
		sc, err := pipeline.NewScenario(devs[i%len(devs)],
			pipeline.WithMode(mode), pipeline.WithFrameSize(300+float64(25*i)))
		if err != nil {
			b.Fatal(err)
		}
		req := Request{Scenario: sc, Trials: 30, NoiseRel: DefaultNoiseRel}
		if req.Seed, err = req.ContentSeed(42); err != nil {
			b.Fatal(err)
		}
		reqs = append(reqs, req)
	}
	return reqs
}

// gridRequests builds 16 consecutive cells of a sweep grid in its
// canonical order (internal/sweep/grid.go: device, mode, CNN, frame size,
// then clock innermost): one device, mode and CNN over four frame sizes
// by five clocks, cut at the dispatcher's default batch of 16. Batches of
// a grid sweep have this shape; benchRequests mixes every device in one
// batch, so it repeats far fewer strings than a grid batch does.
func gridRequests(b testing.TB) []Request {
	b.Helper()
	dev, model := device.Catalog()[0], cnn.Catalog()[0]
	var reqs []Request
	for _, size := range []float64{300, 450, 600, 750} {
		for _, ghz := range []float64{0.6, 0.9, 1.2, 1.5, 1.8} {
			sc, err := pipeline.NewScenario(dev, pipeline.WithMode(pipeline.ModeLocal),
				pipeline.WithFrameSize(size), pipeline.WithCPUFreq(ghz),
				func(sc *pipeline.Scenario) { sc.LocalCNN = model })
			if err != nil {
				b.Fatal(err)
			}
			req := Request{Scenario: sc, Trials: 30, NoiseRel: DefaultNoiseRel}
			if req.Seed, err = req.ContentSeed(42); err != nil {
				b.Fatal(err)
			}
			reqs = append(reqs, req)
		}
	}
	return reqs[:16]
}

// benchBatch builds the codec benchmarks' frames: benchRequests as a
// WireBatch, and the WireBatchResult a node answers it with.
func benchBatch(b *testing.B) (WireBatch, WireBatchResult) {
	b.Helper()
	reqs := benchRequests(b)
	batch := WireBatch{ID: 7, Reqs: reqs}
	return batch, WireBatchResult{ID: 7, Items: NewExecutor(nil).DoBatch(context.Background(), reqs)}
}

// codecSink keeps benchmarked results alive.
var codecSink []byte

// BenchmarkRequestAppendKey times one memory-cache key appended into a
// reused buffer, cycling over a grid batch's cells.
func BenchmarkRequestAppendKey(b *testing.B) {
	reqs := gridRequests(b)
	buf := make([]byte, 0, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = reqs[i%len(reqs)].AppendKey(buf[:0]); err != nil {
			b.Fatal(err)
		}
	}
	codecSink = buf
}

func BenchmarkEncodeBinary(b *testing.B) {
	batch, result := benchBatch(b)
	for _, bc := range []struct {
		name string
		v    any
	}{{"batch16", batch}, {"result16", result}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				payload, err := EncodeBinary(bc.v)
				if err != nil {
					b.Fatal(err)
				}
				codecSink = payload
			}
		})
	}
}

func BenchmarkDecodeBinary(b *testing.B) {
	batch, result := benchBatch(b)
	grid := WireBatch{ID: 7, Reqs: gridRequests(b)}
	for _, bc := range []struct {
		name string
		v    any
		into func() any
	}{
		{"batch16", batch, func() any { return new(WireBatch) }},
		{"grid16", grid, func() any { return new(WireBatch) }},
		{"result16", result, func() any { return new(WireBatchResult) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			payload, err := EncodeBinary(bc.v)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := DecodeBinary(payload, bc.into()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// seedSink keeps benchmarked seeds alive.
var seedSink int64

// BenchmarkContentSeed times one content seed per op over the
// benchRequests cells: the fingerprint spelled and hashed.
func BenchmarkContentSeed(b *testing.B) {
	reqs := benchRequests(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := reqs[i%len(reqs)].ContentSeed(42)
		if err != nil {
			b.Fatal(err)
		}
		seedSink = s
	}
}

// fpSink keeps benchmarked fingerprints alive.
var fpSink string

// BenchmarkFingerprint times one fingerprint string per op over the
// benchRequests cells, the disk cache's key.
func BenchmarkFingerprint(b *testing.B) {
	reqs := benchRequests(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fp, err := reqs[i%len(reqs)].Fingerprint()
		if err != nil {
			b.Fatal(err)
		}
		fpSink = fp
	}
}

func BenchmarkWriteBinaryFrame(b *testing.B) {
	batch, result := benchBatch(b)
	for _, bc := range []struct {
		name string
		v    any
	}{{"batch16", batch}, {"result16", result}} {
		b.Run(bc.name, func(b *testing.B) {
			var buf bytes.Buffer
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := WriteBinaryFrame(&buf, bc.v); err != nil {
					b.Fatal(err)
				}
			}
			codecSink = buf.Bytes()
		})
	}
}

func BenchmarkReadBinaryFrame(b *testing.B) {
	batch, result := benchBatch(b)
	grid := WireBatch{ID: 7, Reqs: gridRequests(b)}
	for _, bc := range []struct {
		name string
		v    any
		into func() any
	}{
		{"batch16", batch, func() any { return new(WireBatch) }},
		{"grid16", grid, func() any { return new(WireBatch) }},
		{"result16", result, func() any { return new(WireBatchResult) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var frame bytes.Buffer
			if err := WriteBinaryFrame(&frame, bc.v); err != nil {
				b.Fatal(err)
			}
			r := bytes.NewReader(frame.Bytes())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Reset(frame.Bytes())
				if err := ReadBinaryFrame(r, bc.into()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
