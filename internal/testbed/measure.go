package testbed

import (
	"errors"
	"fmt"

	"repro/internal/energy"
	"repro/internal/latency"
	"repro/internal/pipeline"
	"repro/internal/stats"
)

// MonsoonSamplePeriodMs is the Monsoon Power Monitor's sampling cadence
// (one sample every 0.2 ms, Section VII); exposed for trace generation.
const MonsoonSamplePeriodMs = 0.2

// DefaultNoiseRel is the default relative measurement noise of the
// simulated monitor. The value is tuned so the re-fitted regressions land
// near (slightly above) the paper's reported R² band of 0.79–0.87; see
// EXPERIMENTS.md.
const DefaultNoiseRel = 0.08

// Bench is the simulated measurement bench: hidden physics plus a noisy
// monitor. It plays the role of the instrumented testbed of Fig. 3.
type Bench struct {
	// Physics is the hidden device behaviour.
	Physics *Physics
	// NoiseRel is the relative measurement noise (multiplicative
	// Gaussian).
	NoiseRel float64

	rng *stats.RNG
}

// NewBench constructs a bench with the default physics and noise.
func NewBench(seed int64) *Bench {
	return &Bench{
		Physics:  NewPhysics(),
		NoiseRel: DefaultNoiseRel,
		rng:      stats.NewRNG(seed),
	}
}

// Measurement is one frame's ground-truth observation.
type Measurement struct {
	// LatencyMs is the measured end-to-end latency.
	LatencyMs float64
	// EnergyMJ is the measured end-to-end energy.
	EnergyMJ float64
	// Latency is the noise-free per-segment breakdown (the physics'
	// internal truth, useful for diagnostics).
	Latency latency.Breakdown
	// Energy is the noise-free energy breakdown.
	Energy energy.Breakdown
	// Session is the session-workload summary (OpSession requests only);
	// the scalar fields above carry its sketch means so measurement-only
	// consumers still see meaningful numbers.
	Session *SessionSummary `json:",omitempty"`
}

// MeasureFrame runs one frame of the scenario on the hidden physics and
// returns the noisy observation: the one-trial case of MeasureFrames. It
// draws from the bench's shared monitor stream and is therefore not safe
// for concurrent use; parallel sweeps use MeasureFramesSeeded instead.
func (b *Bench) MeasureFrame(sc *pipeline.Scenario) (Measurement, error) {
	return b.measureFramesNoise(sc, 1, b.rng, b.NoiseRel)
}

// MeasureFrames averages n frame measurements, mimicking the repeated
// controlled trials of Section VII. The mean suppresses monitor noise by
// √n while systematic physics remains. It draws from the bench's shared
// monitor stream and is therefore not safe for concurrent use.
func (b *Bench) MeasureFrames(sc *pipeline.Scenario, n int) (Measurement, error) {
	return b.measureFramesNoise(sc, n, b.rng, b.NoiseRel)
}

// MeasureFramesSeeded averages n frame measurements whose monitor noise is
// drawn from a fresh RNG seeded with seed, independent of the bench's
// shared stream. The observation depends only on (scenario, n, seed) — not
// on what was measured before — which makes it safe for concurrent use
// across sweep workers (the hidden physics is read-only) and lets a
// parallel sweep reproduce a serial one bit-for-bit.
func (b *Bench) MeasureFramesSeeded(sc *pipeline.Scenario, n int, seed int64) (Measurement, error) {
	return b.measureFramesNoise(sc, n, stats.NewRNG(seed), b.NoiseRel)
}

// measureFramesNoise averages n measurements jittered by rng at the given
// relative noise level. The hidden physics is a pure function of the
// scenario, so it is evaluated once and only the monitor noise is drawn
// per trial — latency then energy, n times, the same draws and sums a
// per-trial evaluation makes. The one exception is a scenario carrying a
// process-local path-loss model: such a model may draw from its own
// stream on every call (LogDistance shadowing), so it is re-evaluated
// each trial.
func (b *Bench) measureFramesNoise(sc *pipeline.Scenario, n int, rng *stats.RNG, noiseRel float64) (Measurement, error) {
	if n <= 0 {
		return Measurement{}, fmt.Errorf("testbed: trial count %d", n)
	}
	if sc == nil {
		return Measurement{}, errors.New("testbed: nil scenario")
	}
	perTrial := sc.HasPathLoss()
	em := b.Physics.TrueEnergyModels(sc.Device.Name)
	var acc Measurement
	for i := 0; i < n; i++ {
		if i == 0 || perTrial {
			eb, lb, err := em.FrameEnergy(sc)
			if err != nil {
				return Measurement{}, fmt.Errorf("true physics: %w", err)
			}
			acc.Latency, acc.Energy = lb, eb
		}
		acc.LatencyMs += rng.Jitter(acc.Latency.Total, noiseRel)
		acc.EnergyMJ += rng.Jitter(acc.Energy.Total, noiseRel)
	}
	acc.LatencyMs /= float64(n)
	acc.EnergyMJ /= float64(n)
	return acc, nil
}
