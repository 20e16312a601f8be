package stats

import (
	"fmt"
	"math"
	"math/rand"
)

// RNG wraps a seeded source with the distribution samplers needed by the
// framework: Gaussian measurement noise for the synthetic testbed,
// exponential inter-arrival/service times for the M/M/1 input buffer, and
// Poisson counts for sensor update batching. All experiments seed RNGs
// explicitly so every figure is reproducible run-to-run.
type RNG struct {
	src *rand.Rand
}

// NewRNG returns a deterministic RNG seeded with seed. It draws exactly
// the stream of rand.New(rand.NewSource(seed)), but seeds lazily, so a
// short-lived RNG costs a fraction of math/rand's seeding (see source).
func NewRNG(seed int64) *RNG {
	return &RNG{src: rand.New(newSource(seed))}
}

// Float64 returns a uniform variate in [0,1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// Intn returns a uniform integer in [0,n).
func (r *RNG) Intn(n int) int { return r.src.Intn(n) }

// Normal returns a Gaussian variate with the given mean and standard
// deviation.
func (r *RNG) Normal(mean, sd float64) float64 {
	return mean + sd*r.src.NormFloat64()
}

// Exponential returns an exponential variate with the given rate λ (mean
// 1/λ). It returns an error for non-positive rates.
func (r *RNG) Exponential(rate float64) (float64, error) {
	if rate <= 0 {
		return 0, fmt.Errorf("stats: exponential rate must be positive, have %v", rate)
	}
	return r.src.ExpFloat64() / rate, nil
}

// Poisson returns a Poisson variate with the given mean using Knuth's
// method for small means and a normal approximation above 30 (adequate for
// the packet-count scales in this framework).
func (r *RNG) Poisson(mean float64) (int, error) {
	if mean < 0 {
		return 0, fmt.Errorf("stats: poisson mean must be non-negative, have %v", mean)
	}
	if mean == 0 {
		return 0, nil
	}
	if mean > 30 {
		v := r.Normal(mean, math.Sqrt(mean))
		if v < 0 {
			v = 0
		}
		return int(v + 0.5), nil
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.src.Float64()
		if p <= l {
			return k, nil
		}
		k++
	}
}

// Jitter returns v perturbed by multiplicative Gaussian noise with relative
// standard deviation relSD, floored at zero. It models measurement noise of
// a physical monitor (the paper's Monsoon sampler) around a true value.
func (r *RNG) Jitter(v, relSD float64) float64 {
	out := v * (1 + relSD*r.src.NormFloat64())
	if out < 0 {
		return 0
	}
	return out
}
