package testbed

import (
	"context"
	"fmt"

	"repro/internal/mobility"
	"repro/internal/session"
	"repro/internal/stats"
	"repro/internal/wireless"
)

// OpSession runs multi-frame XR sessions — thermal throttling, battery
// drain, mobility handoffs — for a block of simulated users and folds the
// per-frame records into mergeable quantile sketches. It is the workload
// that turns the sweep backends into a population simulator: a
// million-user cohort is just many session requests whose summaries merge.
const OpSession RequestOp = "session"

// MobilityConfig is the wire-safe mobility description of a session
// request: the random-walk parameters plus the coverage zone, from which
// any worker reconstructs the identical mobility.Walk/Zone pair.
type MobilityConfig struct {
	// SpeedMps and StepMs define the random walk (mobility.Walk).
	SpeedMps float64 `json:"speed_mps"`
	StepMs   float64 `json:"step_ms"`
	// ZoneTechnology and ZoneRadiusM define the coverage zone.
	ZoneTechnology wireless.AccessTechnology `json:"zone_technology"`
	ZoneRadiusM    float64                   `json:"zone_radius_m"`
	// Kind selects the handoff class on zone exit.
	Kind mobility.HandoffKind `json:"kind"`
	// EveryFrames is the P(HO) re-estimation period (0 → session default).
	EveryFrames int `json:"every_frames,omitempty"`
}

// SessionConfig is the serializable session description embedded in a
// Request (with the scenario riding in Request.Scenario, exactly like
// measure and analyze requests). Everything is plain data: a worker in
// another process reconstructs the identical session.Config from it, which
// is what makes sessions fingerprintable and backend-agnostic.
type SessionConfig struct {
	// Frames is the per-user session length.
	Frames int `json:"frames"`
	// Thermal enables the throttling loop when non-nil.
	Thermal *session.ThermalModel `json:"thermal,omitempty"`
	// BatteryMAh/BatteryVolts enable battery drain when BatteryMAh > 0;
	// BatteryVolts 0 defaults to the usual 3.85 V nominal cell.
	BatteryMAh   float64 `json:"battery_mah,omitempty"`
	BatteryVolts float64 `json:"battery_volts,omitempty"`
	// BatteryStartSoC is the initial state of charge (0 → full).
	BatteryStartSoC float64 `json:"battery_start_soc,omitempty"`
	// Mobility enables handoff estimation when non-nil.
	Mobility *MobilityConfig `json:"mobility,omitempty"`
	// Users is the number of sessions this request simulates (0 → 1).
	// Each user runs the same configuration under its own derived seed.
	Users int `json:"users,omitempty"`
	// FirstUser is this request's offset into the cohort's global user
	// index space. Per-user seeds derive from the global index, so a
	// cohort split into shards of any size yields identical results.
	FirstUser uint64 `json:"first_user,omitempty"`
	// SketchAlpha is the quantile-sketch accuracy (0 →
	// stats.DefaultSketchAlpha, a compile-time constant every worker
	// binary agrees on).
	SketchAlpha float64 `json:"sketch_alpha,omitempty"`
	// IncludeTrace retains the per-frame trace in the summary. Only valid
	// for single-user requests — population shards must stay compact.
	IncludeTrace bool `json:"include_trace,omitempty"`
}

// Validate checks the session configuration.
func (c *SessionConfig) Validate() error {
	if c == nil {
		return fmt.Errorf("%w: nil session config", ErrRequest)
	}
	if c.Frames <= 0 {
		return fmt.Errorf("%w: session frames %d", ErrRequest, c.Frames)
	}
	if c.Users < 0 {
		return fmt.Errorf("%w: session users %d", ErrRequest, c.Users)
	}
	if c.Frames > MaxSessionFrames/c.users() {
		return fmt.Errorf("%w: session users × frames %d × %d exceeds the cap of %d",
			ErrRequest, c.users(), c.Frames, MaxSessionFrames)
	}
	if c.BatteryMAh < 0 || c.BatteryVolts < 0 {
		return fmt.Errorf("%w: battery %v mAh @ %v V", ErrRequest, c.BatteryMAh, c.BatteryVolts)
	}
	if c.BatteryStartSoC < 0 || c.BatteryStartSoC > 1 {
		return fmt.Errorf("%w: battery start SoC %v", ErrRequest, c.BatteryStartSoC)
	}
	if c.SketchAlpha < 0 || c.SketchAlpha >= 1 {
		return fmt.Errorf("%w: sketch alpha %v", ErrRequest, c.SketchAlpha)
	}
	if c.IncludeTrace && c.users() != 1 {
		return fmt.Errorf("%w: trace retention requires a single user, have %d", ErrRequest, c.users())
	}
	if c.Thermal != nil {
		if err := c.Thermal.Validate(); err != nil {
			return fmt.Errorf("%w: %v", ErrRequest, err)
		}
	}
	if m := c.Mobility; m != nil {
		if _, err := mobility.NewWalk(m.SpeedMps, m.StepMs); err != nil {
			return fmt.Errorf("%w: %v", ErrRequest, err)
		}
		if m.ZoneRadiusM <= 0 {
			return fmt.Errorf("%w: zone radius %v m", ErrRequest, m.ZoneRadiusM)
		}
	}
	return nil
}

func (c *SessionConfig) users() int {
	if c.Users <= 0 {
		return 1
	}
	return c.Users
}

func (c *SessionConfig) alpha() float64 {
	if c.SketchAlpha <= 0 {
		return stats.DefaultSketchAlpha
	}
	return c.SketchAlpha
}

// SessionSummary is the compact, mergeable outcome of a block of
// sessions: a few kilobytes of sketches and counters no matter how many
// users or frames streamed through. Population sweeps merge shard
// summaries in request order, which keeps every float accumulation
// deterministic across backends and worker counts for a given shard list.
type SessionSummary struct {
	// Users and Frames count completed sessions and frames.
	Users  uint64 `json:"users"`
	Frames uint64 `json:"frames"`
	// Latency and Energy sketch the per-frame distributions.
	Latency *stats.Sketch `json:"latency"`
	Energy  *stats.Sketch `json:"energy"`
	// TotalEnergyMJ is the exact energy drawn across all sessions.
	TotalEnergyMJ float64 `json:"total_energy_mj"`
	// ThrottledFrames counts frames spent under the thermal governor.
	ThrottledFrames uint64 `json:"throttled_frames,omitempty"`
	// Depleted counts users whose battery emptied mid-session.
	Depleted uint64 `json:"depleted,omitempty"`
	// PeakTempC is the hottest temperature any user reached.
	PeakTempC float64 `json:"peak_temp_c,omitempty"`
	// MinSoC is the lowest final state of charge across users.
	MinSoC float64 `json:"min_soc"`
	// Trace is the per-frame record of a single-user request with
	// IncludeTrace set; population shards leave it nil.
	Trace []session.FrameRecord `json:"trace,omitempty"`
}

// NewSessionSummary returns an empty summary with sketches at the given
// accuracy (0 → stats.DefaultSketchAlpha).
func NewSessionSummary(alpha float64) *SessionSummary {
	return &SessionSummary{
		Latency: stats.NewSketch(alpha),
		Energy:  stats.NewSketch(alpha),
		MinSoC:  1,
	}
}

// Merge folds o into s. o is not modified — a summary served to several
// waiters by the memoizing cache merges into many accumulators safely.
func (s *SessionSummary) Merge(o *SessionSummary) error {
	if o == nil || o.Users == 0 {
		return nil
	}
	if err := s.Latency.Merge(o.Latency); err != nil {
		return fmt.Errorf("merge latency sketch: %w", err)
	}
	if err := s.Energy.Merge(o.Energy); err != nil {
		return fmt.Errorf("merge energy sketch: %w", err)
	}
	if s.Users == 0 || o.MinSoC < s.MinSoC {
		s.MinSoC = o.MinSoC
	}
	if o.PeakTempC > s.PeakTempC {
		s.PeakTempC = o.PeakTempC
	}
	s.Users += o.Users
	s.Frames += o.Frames
	s.TotalEnergyMJ += o.TotalEnergyMJ
	s.ThrottledFrames += o.ThrottledFrames
	s.Depleted += o.Depleted
	s.Trace = append(s.Trace, o.Trace...)
	return nil
}

// UserSeed derives the session seed of one global user index from the
// request's base seed through a SplitMix64 finalizer. The derivation
// depends only on (base, user) — never on shard boundaries — so a cohort
// sharded any way assigns every user the same seed.
func UserSeed(base int64, user uint64) int64 {
	z := uint64(base) ^ (user * 0x9e3779b97f4a7c15)
	z += 0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// runSessions executes a session request: Users sessions run serially
// under per-user derived seeds, each folding its frames into the shared
// sketches, so the request's memory footprint is flat in both users and
// frames. The Measurement's scalar fields carry the sketch means, keeping
// session rows meaningful to code that only understands measurements.
func (e *Executor) runSessions(ctx context.Context, req Request) (Measurement, error) {
	cfg := req.Session
	if err := cfg.Validate(); err != nil {
		return Measurement{}, err
	}
	if req.Scenario == nil {
		return Measurement{}, fmt.Errorf("%w: nil scenario", ErrRequest)
	}
	models, err := e.models(req.Fit)
	if err != nil {
		return Measurement{}, err
	}

	sum := NewSessionSummary(cfg.alpha())
	run := session.Config{
		Models:       models,
		Scenario:     req.Scenario,
		Frames:       cfg.Frames,
		Thermal:      cfg.Thermal,
		DiscardTrace: !cfg.IncludeTrace,
		Observer: func(rec session.FrameRecord) error {
			if err := sum.Latency.Add(rec.LatencyMs); err != nil {
				return err
			}
			return sum.Energy.Add(rec.EnergyMJ)
		},
	}
	if m := cfg.Mobility; m != nil {
		walk, err := mobility.NewWalk(m.SpeedMps, m.StepMs)
		if err != nil {
			return Measurement{}, fmt.Errorf("%w: %v", ErrRequest, err)
		}
		run.Walk = &walk
		run.Zone = mobility.Zone{Technology: m.ZoneTechnology, RadiusM: m.ZoneRadiusM}
		run.HandoffKind = m.Kind
		run.HandoffEveryFrames = m.EveryFrames
	}

	for u := 0; u < cfg.users(); u++ {
		if err := ctx.Err(); err != nil {
			return Measurement{}, err
		}
		run.Seed = UserSeed(req.Seed, cfg.FirstUser+uint64(u))
		if cfg.BatteryMAh > 0 {
			volts := cfg.BatteryVolts
			if volts <= 0 {
				volts = 3.85
			}
			b, err := session.NewBattery(cfg.BatteryMAh, volts)
			if err != nil {
				return Measurement{}, fmt.Errorf("%w: %v", ErrRequest, err)
			}
			if soc := cfg.BatteryStartSoC; soc > 0 {
				b.RemainingMJ = b.CapacityMJ * soc
			}
			run.Battery = &b
		} else {
			run.Battery = nil
		}

		res, err := session.Run(ctx, run)
		if err != nil {
			return Measurement{}, fmt.Errorf("session user %d: %w", cfg.FirstUser+uint64(u), err)
		}
		sum.Users++
		sum.Frames += uint64(res.CompletedFrames)
		sum.TotalEnergyMJ += res.TotalEnergyMJ
		sum.ThrottledFrames += uint64(res.ThrottledFrames)
		if res.Depleted {
			sum.Depleted++
		}
		if res.PeakTempC > sum.PeakTempC {
			sum.PeakTempC = res.PeakTempC
		}
		if u == 0 || res.FinalSoC < sum.MinSoC {
			sum.MinSoC = res.FinalSoC
		}
		if cfg.IncludeTrace {
			sum.Trace = res.Trace
		}
	}
	return Measurement{
		LatencyMs: sum.Latency.Mean(),
		EnergyMJ:  sum.Energy.Mean(),
		Session:   sum,
	}, nil
}
