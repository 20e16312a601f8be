package stats

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sketchSamples draws a reproducible mixed-shape sample set: lognormal
// bulk (the shape of frame latencies), a heavy uniform tail, and exact
// zeros (idle frames), exercising the zero ledger and both bucket ends.
func sketchSamples(tb testing.TB, rng *rand.Rand, n int) []float64 {
	tb.Helper()
	xs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		switch {
		case i%97 == 0:
			xs = append(xs, 0)
		case i%13 == 0:
			xs = append(xs, 100+900*rng.Float64())
		default:
			xs = append(xs, math.Exp(rng.NormFloat64()*0.6+2.5))
		}
	}
	return xs
}

// checkQuantile asserts the sketch's estimate at q lands within alpha of
// the exact sample distribution. The sketch answers the nearest-rank
// quantile while Quantile interpolates, so the estimate is checked
// against the bracketing order statistics (with alpha slack on each),
// not against the interpolated point.
func checkQuantile(t *testing.T, s *Sketch, sorted []float64, q float64) {
	t.Helper()
	got, err := s.Quantile(q)
	if err != nil {
		t.Fatalf("Quantile(%v): %v", q, err)
	}
	// Bracketing order statistics around rank ⌈q·n⌉, widened by one
	// position to absorb the nearest-rank vs interpolation convention gap.
	n := len(sorted)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	loIdx, hiIdx := rank-2, rank
	if loIdx < 0 {
		loIdx = 0
	}
	if hiIdx > n-1 {
		hiIdx = n - 1
	}
	lo := sorted[loIdx] * (1 - s.Alpha)
	hi := sorted[hiIdx] * (1 + s.Alpha)
	if got < lo || got > hi {
		t.Errorf("Quantile(%v) = %v, want within [%v, %v] (exact rank value %v)",
			q, got, lo, hi, sorted[rank-1])
	}
}

// TestSketchQuantileAccuracy is the core property: for randomized sample
// sets, every sketch quantile lands within the advertised relative error
// of the exact order statistics.
func TestSketchQuantileAccuracy(t *testing.T) {
	qs := []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1}
	for _, alpha := range []float64{0.005, 0.01, 0.05} {
		for trial := 0; trial < 5; trial++ {
			rng := rand.New(rand.NewSource(int64(1000*trial) + int64(alpha*1e6)))
			xs := sketchSamples(t, rng, 5000)
			s := NewSketch(alpha)
			for _, x := range xs {
				if err := s.Add(x); err != nil {
					t.Fatalf("Add(%v): %v", x, err)
				}
			}
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			for _, q := range qs {
				checkQuantile(t, s, sorted, q)
			}
			if got, want := s.Mean(), mean(xs); math.Abs(got-want) > 1e-9*math.Abs(want) {
				t.Errorf("alpha %v: Mean() = %v, want exact %v", alpha, got, want)
			}
			if s.Min != sorted[0] || s.Max != sorted[len(sorted)-1] {
				t.Errorf("alpha %v: extremes (%v, %v), want (%v, %v)",
					alpha, s.Min, s.Max, sorted[0], sorted[len(sorted)-1])
			}
		}
	}
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// TestSketchMergeMatchesPooled is the satellite property test: splitting a
// sample stream across K sketches and merging them must answer quantiles
// within the error bound of the exact quantiles of the pooled samples —
// the guarantee the population sweep's shard folding relies on.
func TestSketchMergeMatchesPooled(t *testing.T) {
	qs := []float64{0.01, 0.1, 0.5, 0.9, 0.99, 0.999}
	for trial := 0; trial < 4; trial++ {
		rng := rand.New(rand.NewSource(int64(77 + trial)))
		xs := sketchSamples(t, rng, 8000)
		for _, parts := range []int{2, 7, 64} {
			shards := make([]*Sketch, parts)
			for i := range shards {
				shards[i] = NewSketch(0)
			}
			for i, x := range xs {
				if err := shards[i%parts].Add(x); err != nil {
					t.Fatalf("Add: %v", err)
				}
			}
			merged := NewSketch(0)
			for _, sh := range shards {
				if err := merged.Merge(sh); err != nil {
					t.Fatalf("Merge: %v", err)
				}
			}
			if merged.Count != uint64(len(xs)) {
				t.Fatalf("merged count %d, want %d", merged.Count, len(xs))
			}
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			for _, q := range qs {
				checkQuantile(t, merged, sorted, q)
			}
			// Merging must also reproduce the single-sketch answer exactly:
			// integer bucket counts make the fold lossless.
			direct := NewSketch(0)
			for _, x := range xs {
				if err := direct.Add(x); err != nil {
					t.Fatalf("Add: %v", err)
				}
			}
			for _, q := range qs {
				dv, _ := direct.Quantile(q)
				mv, _ := merged.Quantile(q)
				if dv != mv {
					t.Errorf("parts %d q %v: merged %v != direct %v", parts, q, mv, dv)
				}
			}
		}
	}
}

// TestSketchMergeDoesNotMutateSource guards the cache-sharing contract:
// a summary served to several waiters is merged into many accumulators.
func TestSketchMergeDoesNotMutateSource(t *testing.T) {
	src := NewSketch(0)
	for _, x := range []float64{0, 1, 2.5, 40, 41, 42} {
		if err := src.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	before, err := json.Marshal(src)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		dst := NewSketch(0)
		if err := dst.Merge(src); err != nil {
			t.Fatal(err)
		}
		if err := dst.Add(999); err != nil {
			t.Fatal(err)
		}
	}
	after, err := json.Marshal(src)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatalf("Merge mutated its source:\nbefore %s\nafter  %s", before, after)
	}
}

// TestSketchJSONRoundTrip checks a sketch survives the wire: a worker
// marshals its summary, the dispatcher unmarshals and keeps merging.
func TestSketchJSONRoundTrip(t *testing.T) {
	s := NewSketch(0.02)
	for _, x := range []float64{0, 0, 0.004, 1.25, 17, 17.2, 5000} {
		if err := s.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Sketch
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Count != s.Count || back.Sum != s.Sum || back.Min != s.Min ||
		back.Max != s.Max || back.Zeros != s.Zeros || back.Alpha != s.Alpha {
		t.Fatalf("round trip lost scalars: %+v vs %+v", back, s)
	}
	for _, q := range []float64{0.1, 0.5, 0.9} {
		want, _ := s.Quantile(q)
		got, err := back.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("Quantile(%v) after round trip: %v, want %v", q, got, want)
		}
		if err := back.Add(3.3); err != nil {
			t.Fatalf("Add after round trip: %v", err)
		}
	}
}

func TestSketchErrors(t *testing.T) {
	s := NewSketch(0)
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		if err := s.Add(bad); err == nil {
			t.Errorf("Add(%v): want error", bad)
		}
	}
	if s.Count != 0 {
		t.Fatalf("rejected samples counted: %d", s.Count)
	}
	if _, err := s.Quantile(0.5); err == nil {
		t.Error("Quantile on empty sketch: want error")
	}
	if err := s.Add(1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Quantile(1.5); err == nil {
		t.Error("Quantile(1.5): want error")
	}
	other := NewSketch(0.05)
	if err := other.Add(2); err != nil {
		t.Fatal(err)
	}
	if err := s.Merge(other); err == nil {
		t.Error("Merge with mismatched alpha: want error")
	}
	var zero Sketch
	if err := zero.Add(1); err == nil {
		t.Error("Add on zero-value sketch: want error")
	}
	if err := s.Merge(nil); err != nil {
		t.Errorf("Merge(nil): %v", err)
	}
	if err := NewSketch(0).Merge(NewSketch(0.5)); err != nil {
		t.Errorf("Merge of empty sketch must ignore alpha: %v", err)
	}
}

// TestSketchDefaultAlpha pins the wire constant: a worker resolving an
// unset accuracy must agree with its dispatcher.
func TestSketchDefaultAlpha(t *testing.T) {
	if s := NewSketch(0); s.Alpha != DefaultSketchAlpha {
		t.Fatalf("NewSketch(0).Alpha = %v, want %v", s.Alpha, DefaultSketchAlpha)
	}
	if s := NewSketch(-3); s.Alpha != DefaultSketchAlpha {
		t.Fatalf("NewSketch(-3).Alpha = %v, want %v", s.Alpha, DefaultSketchAlpha)
	}
}

// BenchmarkSketchAdd times one sample folded into a sketch that already
// spans the samples' range, as in a long session.
func BenchmarkSketchAdd(b *testing.B) {
	xs := sketchSamples(b, rand.New(rand.NewSource(1)), 4096)
	s := NewSketch(0)
	for _, x := range xs {
		if err := s.Add(x); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Add(xs[i%len(xs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSketchMerge times folding one session's 1000-frame sketch into
// a population accumulator, the population sweep's per-request merge.
func BenchmarkSketchMerge(b *testing.B) {
	o := NewSketch(0)
	for _, x := range sketchSamples(b, rand.New(rand.NewSource(2)), 1000) {
		if err := o.Add(x); err != nil {
			b.Fatal(err)
		}
	}
	acc := NewSketch(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := acc.Merge(o); err != nil {
			b.Fatal(err)
		}
	}
}
