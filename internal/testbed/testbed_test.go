package testbed

import (
	"context"
	"math"
	"testing"

	"repro/internal/device"
	"repro/internal/energy"
	"repro/internal/latency"
	"repro/internal/pipeline"
)

func scenario(t *testing.T, opts ...pipeline.Option) *pipeline.Scenario {
	t.Helper()
	d, err := device.ByName("XR1")
	if err != nil {
		t.Fatal(err)
	}
	s, err := pipeline.NewScenario(d, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTrueResourceMonotonic(t *testing.T) {
	p := NewPhysics()
	prev := 0.0
	for _, fc := range []float64{1, 1.5, 2, 2.5, 3} {
		c, err := p.TrueResource("XR1", fc, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if c <= prev {
			t.Fatalf("true resource not monotonic at %v GHz: %v <= %v", fc, c, prev)
		}
		prev = c
	}
}

func TestTruePowerMonotonic(t *testing.T) {
	p := NewPhysics()
	prev := 0.0
	for _, fc := range []float64{1, 2, 3} {
		pw, err := p.TruePower("XR1", fc, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if pw <= prev {
			t.Fatalf("true power not monotonic at %v GHz", fc)
		}
		prev = pw
	}
}

func TestDeviceHeterogeneity(t *testing.T) {
	p := NewPhysics()
	// XR1 (5 nm) must out-compute XR3 (12 nm) at identical clocks.
	c1, err := p.TrueResource("XR1", 2, 0.8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	c3, err := p.TrueResource("XR3", 2, 0.8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if c1 <= c3 {
		t.Fatalf("XR1 resource %v must exceed XR3 %v", c1, c3)
	}
	// ...and draw less power.
	p1, err := p.TruePower("XR1", 2, 0.8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	p3, err := p.TruePower("XR3", 2, 0.8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if p1 >= p3 {
		t.Fatalf("XR1 power %v must be below XR3 %v", p1, p3)
	}
	// Unknown devices default to efficiency 1.
	cu, err := p.TrueResource("XR99", 2, 0.8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if cu <= 0 {
		t.Fatal("unknown device must still compute")
	}
}

func TestPhysicsValidation(t *testing.T) {
	p := NewPhysics()
	if _, err := p.TrueResource("XR1", 2, 1, -0.1); err == nil {
		t.Fatal("bad utilization must error")
	}
	if _, err := p.TrueResource("XR1", 0, 1, 1); err == nil {
		t.Fatal("zero fc with CPU share must error")
	}
	if _, err := p.TruePower("XR1", 2, 0, 0); err == nil {
		t.Fatal("zero fg with GPU share must error")
	}
	if _, err := p.TrueCNNComplexity(-1, 10, 1); err == nil {
		t.Fatal("negative depth must error")
	}
}

func TestTrueModelsRunThroughPipeline(t *testing.T) {
	p := NewPhysics()
	lm := p.TrueLatencyModels("XR1")
	lb, err := lm.FrameLatency(scenario(t, pipeline.WithMode(pipeline.ModeRemote)))
	if err != nil {
		t.Fatal(err)
	}
	if lb.Total <= 0 || lb.Encoding <= 0 {
		t.Fatalf("true latency breakdown: %+v", lb)
	}
	em := p.TrueEnergyModels("XR1")
	eb, _, err := em.FrameEnergy(scenario(t))
	if err != nil {
		t.Fatal(err)
	}
	if eb.Total <= 0 {
		t.Fatalf("true energy total = %v", eb.Total)
	}
}

func TestBenchMeasurementNoise(t *testing.T) {
	bench := NewBench(1)
	sc := scenario(t)
	a, err := bench.MeasureFrame(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := bench.MeasureFrame(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.LatencyMs == b.LatencyMs {
		t.Fatal("repeated measurements must differ (monitor noise)")
	}
	// Noise is small: within 20% of the noise-free truth.
	if math.Abs(a.LatencyMs-a.Latency.Total)/a.Latency.Total > 0.2 {
		t.Fatalf("measurement %v too far from truth %v", a.LatencyMs, a.Latency.Total)
	}
	if _, err := bench.MeasureFrame(nil); err == nil {
		t.Fatal("nil scenario must error")
	}
}

// TestPhysicsVersionPinsMeasurement pins two seeded measurements to
// golden values. Everything below is deterministic, so this test fails
// exactly when a code change alters measurement semantics — the event
// that must invalidate persistent caches (sweep.DiskCache stamps
// entries with PhysicsVersion). If this test fails on an intentional
// physics/noise/RNG change, bump PhysicsVersion and refresh the golden
// values in the same commit; old cache entries then read as misses
// instead of replaying the previous binary's numbers.
func TestPhysicsVersionPinsMeasurement(t *testing.T) {
	if PhysicsVersion != 1 {
		t.Fatalf("PhysicsVersion = %d: refresh the golden values below for the new measurement semantics", PhysicsVersion)
	}
	exec := NewExecutor(nil)
	for _, tc := range []struct {
		mode                        pipeline.InferenceMode
		wantLatencyMs, wantEnergyMJ float64
	}{
		{pipeline.ModeLocal, 148.43409829635581, 598.03695827570152},
		{pipeline.ModeRemote, 322.32410912612028, 1264.5897066559539},
	} {
		sc := scenario(t, pipeline.WithMode(tc.mode), pipeline.WithFrameSize(500))
		m, err := exec.Do(context.Background(), Request{Scenario: sc, Trials: 3, Seed: 12345, NoiseRel: DefaultNoiseRel})
		if err != nil {
			t.Fatal(err)
		}
		if m.LatencyMs != tc.wantLatencyMs || m.EnergyMJ != tc.wantEnergyMJ {
			t.Errorf("%v measurement semantics changed without a PhysicsVersion bump:\n got (%.17g ms, %.17g mJ)\nwant (%.17g ms, %.17g mJ)",
				tc.mode, m.LatencyMs, m.EnergyMJ, tc.wantLatencyMs, tc.wantEnergyMJ)
		}
	}
}

func TestBenchDeterministicAcrossRuns(t *testing.T) {
	sc := scenario(t)
	a, err := NewBench(7).MeasureFrame(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBench(7).MeasureFrame(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.LatencyMs != b.LatencyMs || a.EnergyMJ != b.EnergyMJ {
		t.Fatal("same seed must reproduce measurements")
	}
}

func TestMeasureFramesAveragesNoise(t *testing.T) {
	bench := NewBench(3)
	sc := scenario(t)
	avg, err := bench.MeasureFrames(sc, 200)
	if err != nil {
		t.Fatal(err)
	}
	// The 200-trial mean must sit within ~1% of the noise-free truth.
	if rel := math.Abs(avg.LatencyMs-avg.Latency.Total) / avg.Latency.Total; rel > 0.01 {
		t.Fatalf("averaged measurement off by %v", rel)
	}
	if _, err := bench.MeasureFrames(sc, 0); err == nil {
		t.Fatal("zero trials must error")
	}
}

func TestFitModelsRecoverPhysics(t *testing.T) {
	bench := NewBench(42)
	res, err := bench.FitModels(8000, 2000)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range []ModelFitReport{
		res.Report.Resource, res.Report.Power, res.Report.Encoder, res.Report.Complexity,
	} {
		if rep.TrainR2 < 0.75 {
			t.Fatalf("%s: train R² = %v, want > 0.75", rep.Name, rep.TrainR2)
		}
		if rep.TestR2 < 0.7 {
			t.Fatalf("%s: test R² = %v, want > 0.7", rep.Name, rep.TestR2)
		}
		if rep.TestMAPE > 20 {
			t.Fatalf("%s: test MAPE = %v%%, want < 20%%", rep.Name, rep.TestMAPE)
		}
		if rep.CICoverage < 0.85 {
			t.Fatalf("%s: CI coverage = %v, want ≳ 0.9", rep.Name, rep.CICoverage)
		}
	}
	// The fitted resource model must track the true physics within ~15%
	// at interior operating points of a training device.
	for _, fc := range []float64{1.5, 2, 2.5} {
		truth, err := bench.Physics.TrueResource("XR6", fc, 0.55, 0.7)
		if err != nil {
			t.Fatal(err)
		}
		got, err := res.Resource.Compute(fc, 0.55, 0.7)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(got-truth) / truth; rel > 0.15 {
			t.Fatalf("fitted resource at %v GHz off by %v (got %v, true %v)",
				fc, rel, got, truth)
		}
	}
	// The measured decode discount must be near the true γ.
	if math.Abs(res.Encoder.DecodeDiscount-trueDecodeDiscount) > 0.02 {
		t.Fatalf("fitted γ = %v, want ≈ %v", res.Encoder.DecodeDiscount, trueDecodeDiscount)
	}
}

func TestFitModelsRowValidation(t *testing.T) {
	bench := NewBench(1)
	if _, err := bench.FitModels(10, 10); err == nil {
		t.Fatal("tiny datasets must error")
	}
}

func TestFittedModelsPlugIntoAnalysis(t *testing.T) {
	bench := NewBench(9)
	res, err := bench.FitModels(6000, 1500)
	if err != nil {
		t.Fatal(err)
	}
	lm := latency.Models{
		Resource:   res.Resource,
		Encoder:    res.Encoder,
		Complexity: res.Complexity,
	}
	em := energy.Models{Latency: lm, Power: res.Power}
	sc := scenario(t, pipeline.WithMode(pipeline.ModeRemote))
	eb, lb, err := em.FrameEnergy(sc)
	if err != nil {
		t.Fatal(err)
	}
	if lb.Total <= 0 || eb.Total <= 0 {
		t.Fatal("fitted models must produce positive predictions")
	}
	// The fitted model's end-to-end prediction must land near the
	// noise-free truth: this is the paper's headline claim (mean error a
	// few percent).
	truth, err := bench.Physics.TrueLatencyModels("XR1").FrameLatency(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(lb.Total-truth.Total) / truth.Total; rel > 0.15 {
		t.Fatalf("fitted latency off truth by %v (got %v, true %v)",
			rel, lb.Total, truth.Total)
	}
}

// TestMeasureFramesSeededDeterministic checks the seeded measurement
// path the parallel sweep engine relies on: the observation depends only
// on (scenario, trials, seed), not on the bench's shared monitor stream
// or on how many measurements ran before.
func TestMeasureFramesSeededDeterministic(t *testing.T) {
	sc := scenario(t)
	b := NewBench(42)
	first, err := b.MeasureFramesSeeded(sc, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Perturb the shared stream; the seeded path must not notice.
	if _, err := b.MeasureFrames(sc, 25); err != nil {
		t.Fatal(err)
	}
	again, err := b.MeasureFramesSeeded(sc, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	if first.LatencyMs != again.LatencyMs || first.EnergyMJ != again.EnergyMJ {
		t.Fatalf("seeded measurement not reproducible: %+v vs %+v", first, again)
	}
	other, err := b.MeasureFramesSeeded(sc, 10, 8)
	if err != nil {
		t.Fatal(err)
	}
	if other.LatencyMs == first.LatencyMs {
		t.Fatal("different seeds must draw different noise")
	}
	if _, err := b.MeasureFramesSeeded(sc, 0, 7); err == nil {
		t.Fatal("zero trials must error")
	}
	if _, err := b.MeasureFramesSeeded(nil, 5, 7); err == nil {
		t.Fatal("nil scenario must error")
	}
}
