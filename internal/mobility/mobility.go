// Package mobility implements the device-mobility substrate behind the
// handoff latency term of the end-to-end model (Eq. 17): a 2-D random-walk
// over a grid of wireless coverage zones, a Monte-Carlo estimator for the
// handoff probability P(HO), and horizontal/vertical handoff latency
// presets following the analyses the paper cites ([49]–[51]).
package mobility

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/stats"
	"repro/internal/wireless"
)

// Common errors.
var (
	// ErrZone indicates an invalid coverage-zone configuration.
	ErrZone = errors.New("mobility: invalid zone configuration")
	// ErrWalk indicates invalid random-walk parameters.
	ErrWalk = errors.New("mobility: invalid walk parameters")
)

// HandoffKind distinguishes the two handoff classes of Section I.
type HandoffKind int

const (
	// HandoffHorizontal is a handoff within the same access technology.
	HandoffHorizontal HandoffKind = iota + 1
	// HandoffVertical is a handoff across access technologies (e.g.
	// Wi-Fi → LTE), a.k.a. service migration in edge computing.
	HandoffVertical
)

// String returns the handoff kind name.
func (k HandoffKind) String() string {
	switch k {
	case HandoffHorizontal:
		return "horizontal"
	case HandoffVertical:
		return "vertical"
	default:
		return fmt.Sprintf("HandoffKind(%d)", int(k))
	}
}

// Typical handoff latencies in milliseconds, following the 802.11 fast
// handoff analysis of [50] (layer-2 + Mobile IP registration, tens of ms)
// and the WLAN↔UMTS vertical handoff measurements of [51] (hundreds of ms
// due to inter-system authentication and registration).
const (
	DefaultHorizontalHandoffMs = 55
	DefaultVerticalHandoffMs   = 320
)

// Zone is one wireless coverage zone on the grid.
type Zone struct {
	// Technology served inside the zone.
	Technology wireless.AccessTechnology
	// RadiusM approximates the circular coverage radius in meters.
	RadiusM float64
}

// Walk is a 2-D random-walk mobility model inside a zone of the given
// radius. At every step of duration StepMs, the device moves SpeedMps in a
// uniformly random direction. A handoff occurs when the walk exits the
// zone radius.
type Walk struct {
	// SpeedMps is the device speed in meters per second.
	SpeedMps float64
	// StepMs is the walk step duration in milliseconds.
	StepMs float64
}

// NewWalk validates the walk parameters.
func NewWalk(speedMps, stepMs float64) (Walk, error) {
	if speedMps < 0 {
		return Walk{}, fmt.Errorf("%w: speed %v m/s", ErrWalk, speedMps)
	}
	if stepMs <= 0 {
		return Walk{}, fmt.Errorf("%w: step %v ms", ErrWalk, stepMs)
	}
	return Walk{SpeedMps: speedMps, StepMs: stepMs}, nil
}

// HandoffProbability estimates, by Monte-Carlo over trials walks, the
// probability that a device starting uniformly at random inside the zone
// exits it within horizon milliseconds. This plays the role of P(HO) in
// Eq. (17); the paper derives it from the random-walk model of [49].
//
// A walk at distance d from the zone center with k steps of length s
// left ends no farther out than d + k·s. So before the walk, and again
// after every step, the trial is tested against
//
//	m = R − k·s − 1e-9·(k+1)·(R+s)
//
// and when m > 0 and d² < m² it cannot exit: its remaining steps are not
// walked. The margin is over a million times the rounding the walk itself
// can gather (a few 2⁻⁵³·(R+s) per step, from the step's components, the
// position sums and the squared-radius tests), so a skipped trial is one
// the full walk would not have counted either. A skipped trial still
// calls rng.Float64 once per remaining step — Float64 re-draws when its
// source yields 1.0, so counting raw source draws would not do — which
// leaves the estimate and the rng's position afterwards bit-identical to
// walking every step. A trial that exits stops drawing, as it always has.
// Each angle's sine and cosine come from one math.Sincos, which runs the
// same reduction and polynomials as separate Sin and Cos calls wherever
// those are pure Go (every port but s390x).
func (w Walk) HandoffProbability(zone Zone, horizonMs float64, trials int, rng *stats.RNG) (float64, error) {
	if zone.RadiusM <= 0 {
		return 0, fmt.Errorf("%w: radius %v m", ErrZone, zone.RadiusM)
	}
	if horizonMs <= 0 {
		return 0, fmt.Errorf("%w: horizon %v ms", ErrWalk, horizonMs)
	}
	if trials <= 0 {
		return 0, fmt.Errorf("%w: trials %d", ErrWalk, trials)
	}
	if rng == nil {
		return 0, errors.New("mobility: nil rng")
	}
	if w.SpeedMps == 0 {
		return 0, nil
	}
	stepLen := w.SpeedMps * w.StepMs / 1000 // meters per step
	steps := int(horizonMs / w.StepMs)
	if steps == 0 {
		steps = 1
	}
	radius := zone.RadiusM
	reach := math.Abs(stepLen) // a negative speed walks backwards, as far
	exits := 0
	for t := 0; t < trials; t++ {
		// Uniform start inside the disk by rejection-free sqrt sampling.
		r := radius * math.Sqrt(rng.Float64())
		sin, cos := math.Sincos(2 * math.Pi * rng.Float64())
		x, y := r*cos, r*sin
		for s := 0; s < steps; s++ {
			k := float64(steps - s)
			if m := radius - k*reach - 1e-9*(k+1)*(radius+reach); m > 0 && x*x+y*y < m*m {
				// Cannot exit: draw what the rest of the walk would.
				for ; s < steps; s++ {
					rng.Float64()
				}
				break
			}
			sin, cos := math.Sincos(2 * math.Pi * rng.Float64())
			x += stepLen * cos
			y += stepLen * sin
			if x*x+y*y > radius*radius {
				exits++
				break
			}
		}
	}
	return float64(exits) / float64(trials), nil
}

// HandoffModel carries the per-kind handoff latency and the estimated
// handoff probability, producing the expected per-frame handoff latency
// of Eq. (17): L_HO = l_HO · P(HO).
type HandoffModel struct {
	// Kind selects horizontal vs vertical latency.
	Kind HandoffKind
	// LatencyMs is l_HO, the latency of one handoff event.
	LatencyMs float64
	// Probability is P(HO) during one frame's processing time.
	Probability float64
}

// NewHandoffModel builds a model with the default latency for the kind.
func NewHandoffModel(kind HandoffKind, probability float64) (HandoffModel, error) {
	if probability < 0 || probability > 1 {
		return HandoffModel{}, fmt.Errorf("%w: probability %v", ErrWalk, probability)
	}
	lat := DefaultHorizontalHandoffMs
	if kind == HandoffVertical {
		lat = DefaultVerticalHandoffMs
	}
	return HandoffModel{Kind: kind, LatencyMs: float64(lat), Probability: probability}, nil
}

// ExpectedLatencyMs returns L_HO = l_HO · P(HO) (Eq. 17).
func (h HandoffModel) ExpectedLatencyMs() float64 {
	return h.LatencyMs * h.Probability
}

// CrossTechnology reports whether moving between the two zones is a
// vertical handoff.
func CrossTechnology(from, to Zone) HandoffKind {
	if from.Technology != to.Technology {
		return HandoffVertical
	}
	return HandoffHorizontal
}
