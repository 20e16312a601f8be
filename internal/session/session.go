// Package session runs the per-frame analytical models over a multi-frame
// XR session, closing the loops the single-frame analysis leaves open:
// heat from E_θ accumulates and throttles the CPU clock (the user-comfort
// concern of Section V-B), the battery drains by E_tot per frame (the
// battery-health motivation of Section I), and the device walks between
// wireless coverage zones so the handoff term of Eq. (17) evolves with
// position. The output is a frame-indexed trace — the q superscript the
// paper threads through every equation, realized over time.
//
// A session depends only on its Config — the analytical model bundle, a
// scenario, and a seed — never on process state, which is what lets the
// testbed execute sessions as serializable backend requests
// (testbed.OpSession) on any sweep backend. Population-scale callers set
// DiscardTrace and fold frames through Observer so memory stays flat at
// any session count.
package session

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/energy"
	"repro/internal/latency"
	"repro/internal/mobility"
	"repro/internal/pipeline"
	"repro/internal/stats"
)

// Common errors.
var (
	// ErrConfig indicates an invalid session configuration.
	ErrConfig = errors.New("session: invalid configuration")
	// ErrBatteryDepleted reports the battery emptied mid-session.
	ErrBatteryDepleted = errors.New("session: battery depleted")
)

// ThermalModel is a lumped-parameter heat model: the thermal energy E_θ of
// each frame raises a temperature state that decays toward ambient; above
// ThrottleAtC the governor steps the CPU clock down, below ResumeAtC it
// steps back up.
type ThermalModel struct {
	// AmbientC is the ambient temperature.
	AmbientC float64 `json:"ambient_c"`
	// CPerMJ converts dissipated millijoules into temperature rise.
	CPerMJ float64 `json:"c_per_mj"`
	// DecayPerFrame is the fraction of the above-ambient temperature
	// retained each frame (0,1).
	DecayPerFrame float64 `json:"decay_per_frame"`
	// ThrottleAtC triggers a clock step-down.
	ThrottleAtC float64 `json:"throttle_at_c"`
	// ResumeAtC allows a clock step-up.
	ResumeAtC float64 `json:"resume_at_c"`
	// StepGHz is the clock adjustment granularity.
	StepGHz float64 `json:"step_ghz"`
	// MinGHz floors the throttled clock.
	MinGHz float64 `json:"min_ghz"`
}

// DefaultThermal returns a thermal model typical of a passively cooled
// headset: ~45 °C skin-temperature throttle.
func DefaultThermal() ThermalModel {
	return ThermalModel{
		AmbientC:      25,
		CPerMJ:        0.010,
		DecayPerFrame: 0.985,
		ThrottleAtC:   45,
		ResumeAtC:     39,
		StepGHz:       0.25,
		MinGHz:        0.9,
	}
}

// Validate checks the thermal parameters.
func (m ThermalModel) Validate() error {
	switch {
	case m.CPerMJ < 0:
		return fmt.Errorf("%w: CPerMJ %v", ErrConfig, m.CPerMJ)
	case m.DecayPerFrame <= 0 || m.DecayPerFrame > 1:
		return fmt.Errorf("%w: decay %v", ErrConfig, m.DecayPerFrame)
	case m.ThrottleAtC <= m.ResumeAtC:
		return fmt.Errorf("%w: throttle %v must exceed resume %v", ErrConfig, m.ThrottleAtC, m.ResumeAtC)
	case m.StepGHz <= 0:
		return fmt.Errorf("%w: step %v GHz", ErrConfig, m.StepGHz)
	case m.MinGHz <= 0:
		return fmt.Errorf("%w: min clock %v GHz", ErrConfig, m.MinGHz)
	}
	return nil
}

// Battery is a simple charge reservoir. CapacityMJ derives from the usual
// mAh rating: E[mJ] = mAh · 3.6 · V · 1000 / 1000 = mAh · 3.6 · V (J) ·
// 1000.
type Battery struct {
	// CapacityMJ is the full-charge energy.
	CapacityMJ float64
	// RemainingMJ is the current charge.
	RemainingMJ float64
}

// NewBattery builds a battery from a mAh rating at the given nominal
// voltage.
func NewBattery(mAh, volts float64) (Battery, error) {
	if mAh <= 0 || volts <= 0 {
		return Battery{}, fmt.Errorf("%w: battery %v mAh @ %v V", ErrConfig, mAh, volts)
	}
	capMJ := mAh * 3.6 * volts * 1000 / 1000 * 1000 // mAh→C: ·3.6; ·V→J; ·1000→mJ
	return Battery{CapacityMJ: capMJ, RemainingMJ: capMJ}, nil
}

// Drain removes energy; it reports whether charge remains.
func (b *Battery) Drain(mj float64) bool {
	b.RemainingMJ -= mj
	return b.RemainingMJ > 0
}

// SoC returns the state of charge in [0,1].
func (b *Battery) SoC() float64 {
	if b.CapacityMJ <= 0 {
		return 0
	}
	soc := b.RemainingMJ / b.CapacityMJ
	if soc < 0 {
		return 0
	}
	return soc
}

// Config describes a session run.
type Config struct {
	// Models is the analytical model bundle evaluated every frame — the
	// paper's published coefficients (energy.PaperModels) or a re-fitted
	// bundle (e.g. core.Framework.Energy). Sessions only need the
	// latency/energy breakdowns, so they depend on the model layer
	// directly rather than the full framework façade.
	Models energy.Models
	// Scenario is the starting operating point; the session mutates a
	// copy frame by frame.
	Scenario *pipeline.Scenario
	// Frames is the session length.
	Frames int
	// Thermal enables the throttling loop when non-nil.
	Thermal *ThermalModel
	// Battery enables drain accounting when non-nil.
	Battery *Battery
	// Walk and Zone enable mobility: P(HO) is re-estimated every
	// HandoffEveryFrames frames via Monte-Carlo over the walk.
	Walk *mobility.Walk
	Zone mobility.Zone
	// HandoffKind selects the handoff class when mobility is enabled.
	HandoffKind mobility.HandoffKind
	// HandoffEveryFrames is the re-estimation period (default 30).
	HandoffEveryFrames int
	// Seed drives the Monte-Carlo handoff estimation.
	Seed int64
	// DiscardTrace skips per-frame trace retention: Result.Trace stays
	// nil while the summary fields still accumulate. Population sweeps
	// set it so memory stays flat no matter how many sessions run.
	DiscardTrace bool
	// Observer, when non-nil, receives every frame record as it
	// completes — the streaming alternative to the retained trace. A
	// non-nil error aborts the session.
	Observer func(FrameRecord) error
}

// FrameRecord is one frame of the session trace.
type FrameRecord struct {
	// Frame is the frame index q (1-based).
	Frame int `json:"frame"`
	// LatencyMs and EnergyMJ are the frame's end-to-end figures.
	LatencyMs float64 `json:"latency_ms"`
	EnergyMJ  float64 `json:"energy_mj"`
	// CPUFreqGHz is the (possibly throttled) operating clock.
	CPUFreqGHz float64 `json:"cpu_ghz"`
	// TempC is the device temperature after the frame.
	TempC float64 `json:"temp_c"`
	// BatterySoC is the state of charge after the frame.
	BatterySoC float64 `json:"battery_soc"`
	// HandoffProb is the current P(HO) estimate.
	HandoffProb float64 `json:"p_handoff"`
	// Throttled reports whether the governor capped the clock this
	// frame.
	Throttled bool `json:"throttled,omitempty"`
}

// Result is the full session outcome: the per-frame records (unless
// discarded) plus the compact summary fields, which are valid either way.
type Result struct {
	// Trace holds one record per completed frame (nil with DiscardTrace).
	Trace []FrameRecord
	// CompletedFrames counts frames before battery depletion.
	CompletedFrames int
	// MeanLatencyMs and TotalEnergyMJ summarize the session.
	MeanLatencyMs float64
	TotalEnergyMJ float64
	// ThrottledFrames counts frames spent throttled.
	ThrottledFrames int
	// Depleted reports whether the battery emptied.
	Depleted bool
	// PeakTempC is the hottest temperature reached.
	PeakTempC float64
	// FinalTempC, FinalCPUFreqGHz, FinalSoC, and FinalHandoffProb are
	// the device state after the last completed frame.
	FinalTempC       float64
	FinalCPUFreqGHz  float64
	FinalSoC         float64
	FinalHandoffProb float64
}

// Run executes the session. Canceling ctx aborts between frames with the
// context's error — which is what lets a sweep backend kill an in-flight
// population shard promptly.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Models.Power == nil {
		return nil, fmt.Errorf("%w: no model bundle (set Models)", ErrConfig)
	}
	if cfg.Scenario == nil {
		return nil, fmt.Errorf("%w: nil scenario", ErrConfig)
	}
	if cfg.Frames <= 0 {
		return nil, fmt.Errorf("%w: %d frames", ErrConfig, cfg.Frames)
	}
	if cfg.Thermal != nil {
		if err := cfg.Thermal.Validate(); err != nil {
			return nil, err
		}
	}
	if err := cfg.Scenario.Validate(); err != nil {
		return nil, err
	}

	sc := *cfg.Scenario
	rng := stats.NewRNG(cfg.Seed)
	hoPeriod := cfg.HandoffEveryFrames
	if hoPeriod <= 0 {
		hoPeriod = 30
	}

	res := &Result{}
	if !cfg.DiscardTrace {
		res.Trace = make([]FrameRecord, 0, cfg.Frames)
	}
	temp := 25.0
	if cfg.Thermal != nil {
		temp = cfg.Thermal.AmbientC
	}
	res.PeakTempC = temp
	baseFreq := sc.CPUFreqGHz
	throttled := false
	pHO := 0.0
	// The frame's figures depend on sc, which the loop changes only on
	// a handoff refresh and a governor step, so they are evaluated on
	// those frames and reused on the rest. A path-loss model may draw
	// from its own stream on every evaluation, so a scenario carrying
	// one is evaluated every frame.
	everyFrame := sc.HasPathLoss()
	stale := true
	var eb energy.Breakdown
	var lb latency.Breakdown

	for q := 1; q <= cfg.Frames; q++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Mobility: refresh the handoff probability periodically.
		if cfg.Walk != nil && (q == 1 || q%hoPeriod == 0) {
			horizon := 1000.0 / sc.FPS * float64(hoPeriod)
			p, err := cfg.Walk.HandoffProbability(cfg.Zone, horizon, 300, rng)
			if err != nil {
				return nil, fmt.Errorf("frame %d handoff: %w", q, err)
			}
			pHO = p
			ho, err := mobility.NewHandoffModel(cfg.HandoffKind, p)
			if err != nil {
				return nil, fmt.Errorf("frame %d handoff model: %w", q, err)
			}
			sc.Handoff = &ho
			stale = true
		}

		if stale || everyFrame {
			var err error
			if eb, lb, err = cfg.Models.FrameEnergy(&sc); err != nil {
				return nil, fmt.Errorf("frame %d: %w", q, err)
			}
			stale = false
		}

		// Thermal integration and governor.
		if t := cfg.Thermal; t != nil {
			temp = t.AmbientC + (temp-t.AmbientC)*t.DecayPerFrame +
				eb.Thermal*t.CPerMJ
			switch {
			case temp >= t.ThrottleAtC && sc.CPUFreqGHz > t.MinGHz:
				sc.CPUFreqGHz -= t.StepGHz
				if sc.CPUFreqGHz < t.MinGHz {
					sc.CPUFreqGHz = t.MinGHz
				}
				throttled = true
				stale = true
			case temp <= t.ResumeAtC && sc.CPUFreqGHz < baseFreq:
				sc.CPUFreqGHz += t.StepGHz
				if sc.CPUFreqGHz > baseFreq {
					sc.CPUFreqGHz = baseFreq
				}
				stale = true
				if sc.CPUFreqGHz == baseFreq {
					throttled = false
				}
			}
		}

		soc := 1.0
		if cfg.Battery != nil {
			alive := cfg.Battery.Drain(eb.Total)
			soc = cfg.Battery.SoC()
			if !alive {
				res.Depleted = true
			}
		}

		rec := FrameRecord{
			Frame:       q,
			LatencyMs:   lb.Total,
			EnergyMJ:    eb.Total,
			CPUFreqGHz:  sc.CPUFreqGHz,
			TempC:       temp,
			BatterySoC:  soc,
			HandoffProb: pHO,
			Throttled:   throttled,
		}
		if !cfg.DiscardTrace {
			res.Trace = append(res.Trace, rec)
		}
		if cfg.Observer != nil {
			if err := cfg.Observer(rec); err != nil {
				return nil, fmt.Errorf("frame %d observer: %w", q, err)
			}
		}
		res.CompletedFrames = q
		res.TotalEnergyMJ += eb.Total
		res.MeanLatencyMs += lb.Total
		if throttled {
			res.ThrottledFrames++
		}
		if temp > res.PeakTempC {
			res.PeakTempC = temp
		}
		res.FinalTempC = temp
		res.FinalCPUFreqGHz = sc.CPUFreqGHz
		res.FinalSoC = soc
		res.FinalHandoffProb = pHO
		if res.Depleted {
			break
		}
	}
	if res.CompletedFrames > 0 {
		res.MeanLatencyMs /= float64(res.CompletedFrames)
	}
	return res, nil
}

// TraceTable exports a frame trace as a dataset table (CSV-ready).
func TraceTable(trace []FrameRecord) (*dataset.Table, error) {
	t, err := dataset.New("frame", "latency_ms", "energy_mj", "cpu_ghz",
		"temp_c", "battery_soc", "p_handoff", "throttled")
	if err != nil {
		return nil, err
	}
	for _, rec := range trace {
		throttled := 0.0
		if rec.Throttled {
			throttled = 1
		}
		if err := t.Append(float64(rec.Frame), rec.LatencyMs, rec.EnergyMJ,
			rec.CPUFreqGHz, rec.TempC, rec.BatterySoC, rec.HandoffProb,
			throttled); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// TraceTable exports the result's trace as a dataset table (CSV-ready).
func (r *Result) TraceTable() (*dataset.Table, error) {
	return TraceTable(r.Trace)
}

// BatteryLifeFrames extrapolates how many frames a full battery sustains
// at the session's mean energy per frame.
func (r *Result) BatteryLifeFrames(b Battery) (int, error) {
	if r.CompletedFrames == 0 {
		return 0, fmt.Errorf("%w: empty session", ErrConfig)
	}
	perFrame := r.TotalEnergyMJ / float64(r.CompletedFrames)
	if perFrame <= 0 {
		return 0, fmt.Errorf("%w: non-positive frame energy", ErrConfig)
	}
	return int(b.CapacityMJ / perFrame), nil
}
