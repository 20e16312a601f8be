package mobility

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/stats"
)

// referenceHandoffProbability is the estimator walked step by step with
// no skip and separate Cos/Sin calls: the definition HandoffProbability
// must reproduce, estimate and RNG position alike.
func referenceHandoffProbability(w Walk, zone Zone, horizonMs float64, trials int, rng *stats.RNG) (float64, error) {
	if zone.RadiusM <= 0 {
		return 0, fmt.Errorf("%w: radius %v m", ErrZone, zone.RadiusM)
	}
	if horizonMs <= 0 {
		return 0, fmt.Errorf("%w: horizon %v ms", ErrWalk, horizonMs)
	}
	if trials <= 0 {
		return 0, fmt.Errorf("%w: trials %d", ErrWalk, trials)
	}
	if w.SpeedMps == 0 {
		return 0, nil
	}
	stepLen := w.SpeedMps * w.StepMs / 1000
	steps := int(horizonMs / w.StepMs)
	if steps == 0 {
		steps = 1
	}
	exits := 0
	for t := 0; t < trials; t++ {
		r := zone.RadiusM * math.Sqrt(rng.Float64())
		theta := 2 * math.Pi * rng.Float64()
		x, y := r*math.Cos(theta), r*math.Sin(theta)
		for s := 0; s < steps; s++ {
			dir := 2 * math.Pi * rng.Float64()
			x += stepLen * math.Cos(dir)
			y += stepLen * math.Sin(dir)
			if x*x+y*y > zone.RadiusM*zone.RadiusM {
				exits++
				break
			}
		}
	}
	return float64(exits) / float64(trials), nil
}

// FuzzHandoffProbability checks the skipping estimator against the
// per-step reference: the same estimate (or error) and the same RNG
// position afterwards, read as the next three Float64 draws.
func FuzzHandoffProbability(f *testing.F) {
	for _, c := range []struct {
		speed, stepMs, radius, horizon float64
		trials                         uint16
		seed                           int64
	}{
		{13.9, 50, 120, 1000, 300, 1},   // city cohort
		{27.8, 50, 120, 1000, 300, 2},   // highway cohort
		{30, 50, 4, 3000, 200, 3},       // walk far longer than the radius
		{10, 50, 10.25, 1000, 500, 4},   // the whole walk is a hair shorter than R
		{10, 50, 10.0001, 1000, 500, 5}, // ... and 0.1 mm shorter
		{20, 50, 1.2, 100, 500, 6},      // two 1 m steps, most starts within a step of the rim
		{40, 100, 4.1, 50, 500, 7},      // horizon under one step: one 4 m step, at the rim
		{-13.9, 50, 120, 1000, 100, 8},  // negative speed walks as far
		{5, -50, 10, 1000, 10, 9},       // negative step: no steps at all
		{1e-300, 50, 1, 1000, 10, 10},   // a walk too short to matter
		{math.NaN(), 50, 10, 1000, 10, 11},
		{5, 50, math.Inf(1), 1000, 10, 12},
		{0, 50, 10, 1000, 10, 13},
		{5, 50, 0, 1000, 10, 14},
	} {
		f.Add(c.speed, c.stepMs, c.radius, c.horizon, c.trials, c.seed)
	}
	f.Fuzz(func(t *testing.T, speed, stepMs, radius, horizon float64, trials uint16, seed int64) {
		if steps := horizon / stepMs; !(steps < 2048) {
			return // bound the work per input (NaN included)
		}
		w := Walk{SpeedMps: speed, StepMs: stepMs}
		zone := Zone{RadiusM: radius}
		n := int(trials % 512)
		wantRNG := stats.NewRNG(seed)
		pWant, errWant := referenceHandoffProbability(w, zone, horizon, n, wantRNG)
		gotRNG := stats.NewRNG(seed)
		pGot, errGot := w.HandoffProbability(zone, horizon, n, gotRNG)
		if fmt.Sprint(errGot) != fmt.Sprint(errWant) {
			t.Fatalf("error %v, reference %v", errGot, errWant)
		}
		if math.Float64bits(pGot) != math.Float64bits(pWant) {
			t.Fatalf("P(HO) = %v, reference %v", pGot, pWant)
		}
		for i := 0; i < 3; i++ {
			if g, r := gotRNG.Float64(), wantRNG.Float64(); g != r {
				t.Fatalf("RNG position moved: draw %d after the walk is %v, reference %v", i, g, r)
			}
		}
	})
}

// BenchmarkHandoffProbability times one 300-trial estimate for the
// vehicular cohorts' walks: 50 ms steps over a 1 s horizon in a 120 m
// Wi-Fi zone, at city and highway speed.
func BenchmarkHandoffProbability(b *testing.B) {
	zone := Zone{RadiusM: 120}
	for _, bc := range []struct {
		name  string
		speed float64
	}{{"city", 13.9}, {"highway", 27.8}} {
		b.Run(bc.name, func(b *testing.B) {
			w := Walk{SpeedMps: bc.speed, StepMs: 50}
			rng := stats.NewRNG(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := w.HandoffProbability(zone, 1000, 300, rng)
				if err != nil {
					b.Fatal(err)
				}
				probSink = p
			}
		})
	}
}

// probSink keeps benchmarked estimates alive.
var probSink float64
