package testbed

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/device"
	"repro/internal/mobility"
	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/wireless"
)

// measureFramesPerTrial is the reference measurement loop: it evaluates
// the hidden physics afresh in every trial and averages the jittered
// totals, drawing latency then energy noise per trial. measureFramesNoise
// evaluates the physics once per cell and must reproduce this loop bit
// for bit.
func measureFramesPerTrial(b *Bench, sc *pipeline.Scenario, n int, rng *stats.RNG, noiseRel float64) (Measurement, error) {
	var acc Measurement
	for i := 0; i < n; i++ {
		em := b.Physics.TrueEnergyModels(sc.Device.Name)
		eb, lb, err := em.FrameEnergy(sc)
		if err != nil {
			return Measurement{}, err
		}
		acc.LatencyMs += rng.Jitter(lb.Total, noiseRel)
		acc.EnergyMJ += rng.Jitter(eb.Total, noiseRel)
		acc.Latency, acc.Energy = lb, eb
	}
	acc.LatencyMs /= float64(n)
	acc.EnergyMJ /= float64(n)
	return acc, nil
}

// requireBitEqual fails unless two measurements encode to the same bytes:
// every float field, breakdowns included, must match bit for bit.
func requireBitEqual(t *testing.T, what string, got, want Measurement) {
	t.Helper()
	g, err := EncodeBinary(&got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := EncodeBinary(&want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		t.Fatalf("%s: measurement diverges from the per-trial reference:\n got %+v\nwant %+v", what, got, want)
	}
}

// randomWireScenario draws a wire-safe scenario (no path-loss model) on
// any catalog device, local or remote, with random frame size, CPU clock
// and share, and optional handoff and cooperation segments.
func randomWireScenario(t *testing.T, rng *rand.Rand) *pipeline.Scenario {
	t.Helper()
	devs := device.Catalog()
	for {
		dev := devs[rng.Intn(len(devs))]
		opts := []pipeline.Option{
			pipeline.WithFrameSize(200 + 700*rng.Float64()),
			pipeline.WithCPUFreq(dev.CPUGHz * (0.3 + 0.7*rng.Float64())),
			pipeline.WithCPUShare(rng.Float64()),
		}
		if rng.Intn(2) == 1 {
			opts = append(opts, pipeline.WithMode(pipeline.ModeRemote))
		}
		if rng.Intn(3) == 0 {
			h, err := mobility.NewHandoffModel(mobility.HandoffKind(1+rng.Intn(2)), rng.Float64())
			if err != nil {
				t.Fatal(err)
			}
			opts = append(opts, pipeline.WithHandoff(h))
		}
		if rng.Intn(3) == 0 {
			link, err := wireless.NewLink(wireless.WiFi5GHz, 20+200*rng.Float64(), 50*rng.Float64())
			if err != nil {
				t.Fatal(err)
			}
			opts = append(opts, pipeline.WithCooperation(pipeline.CoopConfig{
				Link: link, DataSizeMB: rng.Float64(), IncludeInTotal: rng.Intn(2) == 1,
			}))
		}
		sc, err := pipeline.NewScenario(dev, opts...)
		if err != nil {
			continue // an unstable draw (e.g. input buffer); draw again
		}
		return sc
	}
}

// TestMeasureFramesMatchesPerTrial is the property test for evaluating
// the physics once per cell: over random wire-safe scenarios, trial
// counts and noise levels, the measurement equals the per-trial
// reference bit for bit, and both leave the noise stream at the same
// position.
func TestMeasureFramesMatchesPerTrial(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	bench := NewBench(0)
	cells := 0
	for draw := 0; draw < 150; draw++ {
		sc := randomWireScenario(t, rng)
		if err := (Request{Scenario: sc}).WireSafe(); err != nil {
			t.Fatal(err)
		}
		seed := rng.Int63() - rng.Int63()
		for _, n := range []int{1, 2, 30, 1000} {
			for _, noise := range []float64{0, DefaultNoiseRel, 0.5} {
				gotRNG, wantRNG := stats.NewRNG(seed), stats.NewRNG(seed)
				got, err := bench.measureFramesNoise(sc, n, gotRNG, noise)
				if err != nil {
					t.Fatal(err)
				}
				want, err := measureFramesPerTrial(bench, sc, n, wantRNG, noise)
				if err != nil {
					t.Fatal(err)
				}
				requireBitEqual(t, sc.Device.Name, got, want)
				if a, b := gotRNG.Float64(), wantRNG.Float64(); a != b {
					t.Fatalf("%s n=%d: noise stream position diverges", sc.Device.Name, n)
				}
				cells++
			}
		}
	}
	if cells != 150*4*3 {
		t.Fatalf("checked %d cells", cells)
	}
}

// TestMeasureFramesShadowedLossPerTrial pins the exception: a scenario
// carrying a shadowed LogDistance model — whose every evaluation draws
// from its own stream — is re-evaluated each trial, so the average sees
// a fresh shadowing draw per trial, on the edge link and on the
// cooperation link alike.
func TestMeasureFramesShadowedLossPerTrial(t *testing.T) {
	bench := NewBench(0)
	shadowed := func(seed int64) *wireless.LogDistance {
		return &wireless.LogDistance{ReferenceM: 1, Gamma: 3, ShadowSigmaDB: 6, Rng: stats.NewRNG(seed), Floor: 0.05}
	}
	coopLink, err := wireless.NewLink(wireless.WiFi5GHz, 80, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		attach func(sc *pipeline.Scenario, loss wireless.PathLoss)
		// opts builds fresh options per scenario: WithCooperation's
		// option hands every scenario it builds the same *CoopConfig.
		opts func() pipeline.Option
	}{
		{"edge", func(sc *pipeline.Scenario, loss wireless.PathLoss) { sc.EdgeLink.Loss = loss },
			func() pipeline.Option { return pipeline.WithMode(pipeline.ModeRemote) }},
		{"coop", func(sc *pipeline.Scenario, loss wireless.PathLoss) { sc.Coop.Link.Loss = loss },
			func() pipeline.Option {
				return pipeline.WithCooperation(pipeline.CoopConfig{Link: coopLink, DataSizeMB: 2, IncludeInTotal: true})
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gotLoss, wantLoss := shadowed(5), shadowed(5)
			gotSc, wantSc := scenario(t, tc.opts()), scenario(t, tc.opts())
			tc.attach(gotSc, gotLoss)
			tc.attach(wantSc, wantLoss)
			const n = 30
			got, err := bench.measureFramesNoise(gotSc, n, stats.NewRNG(9), DefaultNoiseRel)
			if err != nil {
				t.Fatal(err)
			}
			want, err := measureFramesPerTrial(bench, wantSc, n, stats.NewRNG(9), DefaultNoiseRel)
			if err != nil {
				t.Fatal(err)
			}
			requireBitEqual(t, tc.name, got, want)
			if a, b := gotLoss.Rng.Float64(), wantLoss.Rng.Float64(); a != b {
				t.Fatal("shadowing stream position diverges: the loss model was not evaluated once per trial")
			}

			// Evaluated once, the same cell would average a single
			// shadowing draw, and read differently.
			onceLoss := shadowed(5)
			onceSc := scenario(t, tc.opts())
			tc.attach(onceSc, onceLoss)
			eb, lb, err := bench.Physics.TrueEnergyModels(onceSc.Device.Name).FrameEnergy(onceSc)
			if err != nil {
				t.Fatal(err)
			}
			noise := stats.NewRNG(9)
			var latSum, enSum float64
			for i := 0; i < n; i++ {
				latSum += noise.Jitter(lb.Total, DefaultNoiseRel)
				enSum += noise.Jitter(eb.Total, DefaultNoiseRel)
			}
			if latSum/n == got.LatencyMs && enSum/n == got.EnergyMJ {
				t.Fatal("shadowed cell reads the same as a single physics evaluation; the test exercised nothing")
			}
		})
	}
}

// TestBenchSharedStreamMatchesPerTrial pins the shared-stream entry
// points: MeasureFrame (the one-trial case) and MeasureFrames,
// interleaved on one bench, read the same values as the per-trial
// reference drawing from an identically seeded stream.
func TestBenchSharedStreamMatchesPerTrial(t *testing.T) {
	local, remote := scenario(t), scenario(t, pipeline.WithMode(pipeline.ModeRemote))
	got, ref := NewBench(21), NewBench(21)
	for i, step := range []struct {
		sc *pipeline.Scenario
		n  int // 0 calls MeasureFrame
	}{{local, 0}, {remote, 5}, {remote, 0}, {local, 30}, {local, 0}, {remote, 1}} {
		var m Measurement
		var err error
		if step.n == 0 {
			m, err = got.MeasureFrame(step.sc)
		} else {
			m, err = got.MeasureFrames(step.sc, step.n)
		}
		if err != nil {
			t.Fatal(err)
		}
		n := max(step.n, 1)
		want, err := measureFramesPerTrial(ref, step.sc, n, ref.rng, ref.NoiseRel)
		if err != nil {
			t.Fatal(err)
		}
		requireBitEqual(t, fmt.Sprintf("shared-stream step %d", i), m, want)
	}
}
