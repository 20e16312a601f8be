package stats

import (
	"math"
	"math/rand"
	"testing"
)

// edgeSeeds are the seeds where math/rand's seed normalization branches:
// zero and the multiples of 2³¹−1 (remapped to a fixed chain start), the
// remapped start itself, negatives, and the int64 extremes.
var edgeSeeds = []int64{
	0, 1, -1,
	lehmerM, -lehmerM, 2 * lehmerM, -2 * lehmerM, lehmerM - 1, lehmerM + 1,
	mathRandZeroSeed, -mathRandZeroSeed,
	math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
}

// propertySeeds returns the edge seeds plus n seeds spread over the whole
// int64 range, small and huge, positive and negative.
func propertySeeds(n int) []int64 {
	seeds := append([]int64(nil), edgeSeeds...)
	pick := rand.New(rand.NewSource(20240917))
	for i := 0; i < n; i++ {
		s := pick.Int63() >> uint(pick.Intn(63))
		if i%2 == 1 {
			s = -s
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// TestSourceMatchesMathRand pins the tentpole property: for every seed the
// lazy source yields math/rand.NewSource(seed)'s exact stream, through the
// lazy phase, the draw that builds the register, and well past one full
// turn of it. Int63 and Uint64 calls are interleaved as rand.Rand does.
func TestSourceMatchesMathRand(t *testing.T) {
	const draws = 1500
	for _, seed := range propertySeeds(300) {
		got := newSource(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for k := 1; k <= draws; k++ {
			if k%3 == 0 {
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("seed %d draw %d: Int63 = %d, math/rand %d", seed, k, g, w)
				}
				continue
			}
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: Uint64 = %#x, math/rand %#x", seed, k, g, w)
			}
		}
	}
}

// TestSourceLazyUntilTap checks the source allocates its register only on
// the first draw that reads a word an earlier draw wrote (draw rngTap+1),
// and that reseeding returns it to the lazy phase on the new stream.
func TestSourceLazyUntilTap(t *testing.T) {
	s := newSource(7)
	for k := 1; k <= rngTap; k++ {
		s.Uint64()
	}
	if s.reg != nil {
		t.Fatalf("register built after %d draws, want lazy", rngTap)
	}
	s.Uint64()
	if s.reg == nil {
		t.Fatalf("register not built on draw %d", rngTap+1)
	}
	s.Seed(-9)
	if s.reg != nil {
		t.Fatal("Seed kept the old register")
	}
	want := rand.NewSource(-9)
	for k := 1; k <= rngLen+1; k++ {
		if g, w := s.Int63(), want.Int63(); g != w {
			t.Fatalf("reseeded draw %d: %d, math/rand %d", k, g, w)
		}
	}
}

// TestRNGMatchesMathRandMethods drives the rand.Rand methods stats.RNG
// calls (Float64, Intn, NormFloat64, ExpFloat64) in a seed-dependent mix
// over both sources: the samplers consume a variable number of source
// draws (ziggurat rejections, Intn retries), so the boundary at draw
// rngTap+1 lands mid-method for some seeds.
func TestRNGMatchesMathRandMethods(t *testing.T) {
	ns := []int{1, 2, 3, 7, 64, 1000, 1<<31 - 1, 1 << 40, 3 << 40}
	for _, seed := range propertySeeds(300) {
		got := NewRNG(seed).src
		want := rand.New(rand.NewSource(seed))
		mix := rand.New(rand.NewSource(seed ^ 0x5eed))
		for call := 0; call < 700; call++ {
			var g, w float64
			switch op := mix.Intn(4); op {
			case 0:
				g, w = got.Float64(), want.Float64()
			case 1:
				n := ns[mix.Intn(len(ns))]
				g, w = float64(got.Intn(n)), float64(want.Intn(n))
			case 2:
				g, w = got.NormFloat64(), want.NormFloat64()
			case 3:
				g, w = got.ExpFloat64(), want.ExpFloat64()
			}
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("seed %d call %d: %v, math/rand %v", seed, call, g, w)
			}
		}
	}
}

// FuzzRNGStream compares the source with math/rand.NewSource(seed) for a
// fuzzed number of draws, alternating Uint64 and Int63.
func FuzzRNGStream(f *testing.F) {
	for _, seed := range []int64{0, lehmerM, -lehmerM, 2 * lehmerM, mathRandZeroSeed, math.MinInt64, math.MaxInt64} {
		for _, draws := range []uint16{rngTap - 1, rngTap, rngTap + 1, rngLen, rngLen + 1} {
			f.Add(seed, draws)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		got := newSource(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for k := 1; k <= int(draws); k++ {
			if k%2 == 0 {
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("seed %d draw %d: Int63 = %d, math/rand %d", seed, k, g, w)
				}
			} else if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: Uint64 = %#x, math/rand %#x", seed, k, g, w)
			}
		}
	})
}

var benchSink float64

// rngWorkloads are the two shapes of RNG use: a measure cell (seed plus
// two normals per trial for 30 trials) and a session user's long stream.
var rngWorkloads = []struct {
	name  string
	draws int
}{
	{"cell", 60},
	{"stream", 10000},
}

func BenchmarkNewRNG(b *testing.B) {
	for _, w := range rngWorkloads {
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := NewRNG(int64(i))
				for k := 0; k < w.draws; k++ {
					benchSink += r.Normal(0, 1)
				}
			}
		})
	}
}

// BenchmarkMathRandSource is BenchmarkNewRNG's baseline: the same
// workloads on an RNG over a math/rand.NewSource generator.
func BenchmarkMathRandSource(b *testing.B) {
	for _, w := range rngWorkloads {
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := &RNG{src: rand.New(rand.NewSource(int64(i)))}
				for k := 0; k < w.draws; k++ {
					benchSink += r.Normal(0, 1)
				}
			}
		})
	}
}
