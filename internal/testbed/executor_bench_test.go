package testbed

import (
	"context"
	"testing"

	"repro/internal/device"
	"repro/internal/mobility"
	"repro/internal/pipeline"
	"repro/internal/sensors"
	"repro/internal/wireless"
)

// BenchmarkExecutorDoBatch times the node-side executor on a 16-request
// batch per op: measure (30 trials per cell), analyze (a fitted bundle,
// fitted before the timer starts, so the loop times the memoized
// lookup and the model evaluation), session (one 60-frame user per
// request) and session-mobility (the same on the vehicular population's
// request shape, whose handoff estimate dominates).
func BenchmarkExecutorDoBatch(b *testing.B) {
	measure := benchRequests(b)
	fit := &FitConfig{Seed: 42, TrainRows: 2000, TestRows: 500}
	analyze := make([]Request, len(measure))
	session := make([]Request, len(measure))
	for i, r := range measure {
		analyze[i] = Request{Op: OpAnalyze, Scenario: r.Scenario, Fit: fit}
		session[i] = Request{Op: OpSession, Scenario: r.Scenario, Seed: r.Seed,
			Session: &SessionConfig{Frames: 60, Users: 1}}
	}
	for _, bc := range []struct {
		name string
		reqs []Request
	}{{"measure", measure}, {"analyze", analyze}, {"session", session},
		{"session-mobility", vehicularSessionRequests(b, measure)}} {
		b.Run(bc.name, func(b *testing.B) {
			exec := NewExecutor(nil)
			for _, it := range exec.DoBatch(context.Background(), bc.reqs) {
				if it.Err != "" {
					b.Fatal(it.Err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				execSink = exec.DoBatch(context.Background(), bc.reqs)
			}
		})
	}
}

// execSink keeps benchmarked results alive.
var execSink []WireItem

// vehicularSessionRequests builds one 60-frame user per measure request
// in the shape of the vehicular population's cohorts: XR7 remote
// inference with roadside sensors on the cohorts' re-fitted models, a
// 5000 mAh battery full or at 20%, and a 50 ms walk in a 120 m Wi-Fi
// zone at city or highway speed.
func vehicularSessionRequests(b *testing.B, measure []Request) []Request {
	b.Helper()
	xr7, err := device.ByName("XR7")
	if err != nil {
		b.Fatal(err)
	}
	var arr []sensors.Sensor
	for _, s := range []struct {
		name          string
		hz, distanceM float64
	}{{"rsu-camera", 120, 80}, {"v2v-beacon", 50, 45}, {"lidar", 20, 60}} {
		sn, err := sensors.NewSensor(s.name, s.hz, s.distanceM)
		if err != nil {
			b.Fatal(err)
		}
		arr = append(arr, sn)
	}
	sc, err := pipeline.NewScenario(xr7,
		pipeline.WithMode(pipeline.ModeRemote),
		pipeline.WithFrameSize(640),
		pipeline.WithSensors(sensors.NewArray(arr...), 3),
		pipeline.WithRequiredUpdateHz(60))
	if err != nil {
		b.Fatal(err)
	}
	fit := &FitConfig{Seed: 7, TrainRows: 8000, TestRows: 2000}
	reqs := make([]Request, len(measure))
	for i, r := range measure {
		speed, soc := 13.9, 0.0
		if i%2 == 1 {
			speed = 27.8
		}
		if i%4 >= 2 {
			soc = 0.2
		}
		reqs[i] = Request{Op: OpSession, Scenario: sc, Fit: fit, Seed: r.Seed,
			Session: &SessionConfig{Frames: 60, Users: 1, BatteryMAh: 5000, BatteryStartSoC: soc,
				Mobility: &MobilityConfig{SpeedMps: speed, StepMs: 50, ZoneTechnology: wireless.WiFi5GHz,
					ZoneRadiusM: 120, Kind: mobility.HandoffVertical}}}
	}
	return reqs
}
