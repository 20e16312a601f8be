package stats

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// TestAppendFixedMatchesStrconv holds AppendFixed to strconv's 'f'
// spelling at precisions 0–3 over random bit patterns, short decimals
// (whose doubles sit next to a rounding tie), their neighbouring
// doubles, exact binary ties, and the edges of the fast path.
func TestAppendFixedMatchesStrconv(t *testing.T) {
	check := func(v float64) {
		t.Helper()
		for prec := 0; prec <= 3; prec++ {
			want := strconv.FormatFloat(v, 'f', prec, 64)
			if got := string(AppendFixed([]byte("x"), v, prec)); got != "x"+want {
				t.Fatalf("AppendFixed(%v (%#x), %d) = %q, want %q", v, math.Float64bits(v), prec, got[1:], want)
			}
		}
	}
	for _, v := range []float64{
		0, math.Copysign(0, -1), 0.5, 1, 9.5, 9.95, 9.96, 9.995, 99.95, 999.5, 999.95, 1.005,
		1e15 - 1, 1e15 - 0.5, 1e15 - 0.125, 1e15, 1e15 + 2, 1e20, 123456789012345.6,
		math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, 5e-324,
	} {
		check(v)
		check(-v)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100000; i++ {
		var v float64
		switch i % 4 {
		case 0: // any double in the fast path's range and around it
			v = math.Pow(10, 17*rng.Float64()-1) * (1 + rng.Float64())
		case 1: // a short decimal: its double is a near-tie one place on
			m := []float64{10, 100, 1000, 10000}[rng.Intn(4)]
			v = float64(rng.Int63n(1e9)) / m
		case 2: // an exact binary tie at some place
			v = float64(rng.Int63n(1<<40)) / float64(int64(1)<<rng.Intn(5))
		case 3: // a neighbour of a short decimal
			v = float64(rng.Int63n(1e7)) / 1000
			v = math.Nextafter(v, math.Inf(1-2*rng.Intn(2)))
		}
		if rng.Intn(2) == 1 {
			v = -v
		}
		check(v)
	}
}

// BenchmarkAppendFixed times one two-decimal spelling into a reused
// buffer.
func BenchmarkAppendFixed(b *testing.B) {
	buf := make([]byte, 0, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendFixed(buf[:0], 412.3391, 2)
	}
}
