package session

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mobility"
	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/wireless"
)

// referenceRun is Run's loop as a per-frame evaluation: FrameEnergy on
// every frame, nothing reused. Run must reproduce it bit for bit.
func referenceRun(cfg Config) (*Result, error) {
	sc := *cfg.Scenario
	rng := stats.NewRNG(cfg.Seed)
	hoPeriod := cfg.HandoffEveryFrames
	if hoPeriod <= 0 {
		hoPeriod = 30
	}
	res := &Result{Trace: make([]FrameRecord, 0, cfg.Frames)}
	temp := 25.0
	if cfg.Thermal != nil {
		temp = cfg.Thermal.AmbientC
	}
	res.PeakTempC = temp
	baseFreq := sc.CPUFreqGHz
	throttled := false
	pHO := 0.0
	for q := 1; q <= cfg.Frames; q++ {
		if cfg.Walk != nil && (q == 1 || q%hoPeriod == 0) {
			horizon := 1000.0 / sc.FPS * float64(hoPeriod)
			p, err := cfg.Walk.HandoffProbability(cfg.Zone, horizon, 300, rng)
			if err != nil {
				return nil, err
			}
			pHO = p
			ho, err := mobility.NewHandoffModel(cfg.HandoffKind, p)
			if err != nil {
				return nil, err
			}
			sc.Handoff = &ho
		}
		eb, lb, err := cfg.Models.FrameEnergy(&sc)
		if err != nil {
			return nil, err
		}
		if t := cfg.Thermal; t != nil {
			temp = t.AmbientC + (temp-t.AmbientC)*t.DecayPerFrame + eb.Thermal*t.CPerMJ
			switch {
			case temp >= t.ThrottleAtC && sc.CPUFreqGHz > t.MinGHz:
				sc.CPUFreqGHz -= t.StepGHz
				if sc.CPUFreqGHz < t.MinGHz {
					sc.CPUFreqGHz = t.MinGHz
				}
				throttled = true
			case temp <= t.ResumeAtC && sc.CPUFreqGHz < baseFreq:
				sc.CPUFreqGHz += t.StepGHz
				if sc.CPUFreqGHz > baseFreq {
					sc.CPUFreqGHz = baseFreq
				}
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
		res.Trace = append(res.Trace, FrameRecord{
			Frame: q, LatencyMs: lb.Total, EnergyMJ: eb.Total, CPUFreqGHz: sc.CPUFreqGHz,
			TempC: temp, BatterySoC: soc, HandoffProb: pHO, Throttled: throttled,
		})
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
	res.MeanLatencyMs /= float64(res.CompletedFrames)
	return res, nil
}

// randomSession is a plain-data session description; config builds a
// fresh Config from it, with its own battery and shadowing stream, so
// two runs of one description start from the same state.
type randomSession struct {
	frames, every         int
	remote                bool
	thermal               *ThermalModel
	batteryMAh            float64
	speed, stepMs, radius float64
	kind                  mobility.HandoffKind
	shadowSeed            int64 // 0: no path-loss model
	seed                  int64
}

func newRandomSession(r *rand.Rand) randomSession {
	s := randomSession{
		frames: 1 + r.Intn(240),
		remote: r.Intn(2) == 0,
		seed:   r.Int63(),
	}
	if r.Intn(2) == 0 {
		th := DefaultThermal()
		th.CPerMJ = 0.001 + 0.6*r.Float64()
		th.DecayPerFrame = 0.9 + 0.099*r.Float64()
		s.thermal = &th
	}
	if r.Intn(2) == 0 {
		s.batteryMAh = 0.5 + 20*r.Float64()
	}
	if r.Intn(2) == 0 {
		s.speed = 40 * r.Float64()
		s.stepMs = 10 + 90*r.Float64()
		s.radius = 2 + 150*r.Float64()
		s.kind = mobility.HandoffKind(1 + r.Intn(2))
		s.every = r.Intn(40)
	}
	if r.Intn(3) == 0 {
		s.remote = true
		s.shadowSeed = 1 + r.Int63n(1<<40)
	}
	return s
}

func (s randomSession) config(t *testing.T) Config {
	cfg := baseConfig(t, s.frames)
	sc := *cfg.Scenario
	if s.remote {
		sc.Mode = pipeline.ModeRemote
	}
	if s.shadowSeed != 0 {
		sc.EdgeLink.Loss = &wireless.LogDistance{
			ReferenceM: 1, Gamma: 2.7, ShadowSigmaDB: 4, Rng: stats.NewRNG(s.shadowSeed),
		}
	}
	cfg.Scenario = &sc
	cfg.Seed = s.seed
	cfg.Thermal = s.thermal
	if s.batteryMAh > 0 {
		b, err := NewBattery(s.batteryMAh, 3.85)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Battery = &b
	}
	if s.radius > 0 {
		cfg.Walk = &mobility.Walk{SpeedMps: s.speed, StepMs: s.stepMs}
		cfg.Zone = mobility.Zone{Technology: wireless.WiFi5GHz, RadiusM: s.radius}
		cfg.HandoffKind = s.kind
		cfg.HandoffEveryFrames = s.every
	}
	return cfg
}

// TestRunMatchesPerFrameReference pins the frame-energy memo: random
// sessions with and without thermal, battery, mobility and a shadowed
// path-loss model must give the per-frame reference's Result exactly,
// trace included. %#v spells every float in its shortest round-trip
// form, so equal strings mean equal bits.
func TestRunMatchesPerFrameReference(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	var throttled, depleted, mobile, shadowed int
	for i := 0; i < 200; i++ {
		s := newRandomSession(r)
		got, err := Run(context.Background(), s.config(t))
		if err != nil {
			t.Fatalf("session %d (%+v): %v", i, s, err)
		}
		want, err := referenceRun(s.config(t))
		if err != nil {
			t.Fatalf("session %d reference: %v", i, err)
		}
		if g, w := fmt.Sprintf("%#v", *got), fmt.Sprintf("%#v", *want); g != w {
			t.Fatalf("session %d (%+v) diverges from the per-frame reference:\ngot  %s\nwant %s", i, s, g, w)
		}
		if got.ThrottledFrames > 0 {
			throttled++
		}
		if got.Depleted {
			depleted++
		}
		if got.FinalHandoffProb > 0 {
			mobile++
		}
		if s.shadowSeed != 0 {
			shadowed++
		}
	}
	// Every path the memo has to get right must have been exercised.
	if throttled == 0 || depleted == 0 || mobile == 0 || shadowed == 0 {
		t.Fatalf("coverage: %d throttled, %d depleted, %d mobile, %d shadowed sessions",
			throttled, depleted, mobile, shadowed)
	}
}
