package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/aoi"
	"repro/internal/pipeline"
	"repro/internal/queue"
	"repro/internal/sensors"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// SweepPoint is one (frame size, CPU frequency) cell of a Fig. 4 panel.
type SweepPoint struct {
	// FrameSizePx2 is the x-axis value.
	FrameSizePx2 float64
	// CPUFreqGHz is the series.
	CPUFreqGHz float64
	// GroundTruth is the bench measurement (ms or mJ).
	GroundTruth float64
	// Proposed is the fitted analytical model's prediction.
	Proposed float64
	// ErrPct is |Proposed−GT|/GT in percent.
	ErrPct float64
}

// SweepResult is one Fig. 4(a)–(d) panel.
type SweepResult struct {
	id string
	// Title describes the panel.
	Title string
	// Unit is "ms" or "mJ".
	Unit string
	// Points holds the sweep grid.
	Points []SweepPoint
	// MeanErrPct is the mean absolute percentage error across the grid.
	MeanErrPct float64
	// PaperMeanErrPct is the error the paper reports for this panel.
	PaperMeanErrPct float64
}

// ID implements Result.
func (r *SweepResult) ID() string { return r.id }

// Render implements Result.
func (r *SweepResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", r.id, r.Title)
	fmt.Fprintf(&b, "%10s %8s %12s %12s %8s\n", "size(px²)", "f_c(GHz)", "GT("+r.Unit+")", "model("+r.Unit+")", "err%%")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%10.0f %8.0f %12.1f %12.1f %8.2f\n",
			p.FrameSizePx2, p.CPUFreqGHz, p.GroundTruth, p.Proposed, p.ErrPct)
	}
	fmt.Fprintf(&b, "mean error: %.2f%% (paper: %.2f%%)\n", r.MeanErrPct, r.PaperMeanErrPct)
	return b.String()
}

// sweepCell enumerates the Fig. 4 grid in panel order: frame sizes
// outermost, CPU frequencies innermost.
type sweepCell struct {
	size, freq float64
}

func sweepCells() []sweepCell {
	var cells []sweepCell
	for _, size := range FrameSizes() {
		for _, freq := range CPUFrequencies() {
			cells = append(cells, sweepCell{size, freq})
		}
	}
	return cells
}

// sweepScenarios materializes the Fig. 4 grid for one inference mode.
func (s *Suite) sweepScenarios(mode pipeline.InferenceMode) ([]*pipeline.Scenario, error) {
	cells := sweepCells()
	scs := make([]*pipeline.Scenario, len(cells))
	for i, c := range cells {
		sc, err := s.sweepScenario(mode, c.size, c.freq)
		if err != nil {
			return nil, err
		}
		scs[i] = sc
	}
	return scs, nil
}

// runSweep evaluates a Fig. 4 panel: ground truth measured on the suite's
// execution backend (in-process pool, subprocess shards, or the
// memoizing cache over either), predictions from the fitted models. The
// content-addressed measurement seeds keep the panel byte-identical for
// any backend at any parallelism.
func (s *Suite) runSweep(ctx context.Context, id, title, unit string, mode pipeline.InferenceMode,
	wantEnergy bool, paperErr float64) (*SweepResult, error) {
	res := &SweepResult{id: id, Title: title, Unit: unit, PaperMeanErrPct: paperErr}
	cells := sweepCells()
	scs, err := s.sweepScenarios(mode)
	if err != nil {
		return nil, err
	}
	ms, err := s.measure(ctx, scs)
	if err != nil {
		return nil, fmt.Errorf("measure: %w", err)
	}
	points := make([]SweepPoint, len(cells))
	for i, c := range cells {
		var gt, pred float64
		if wantEnergy {
			gt = ms[i].EnergyMJ
			eb, _, err := s.Energy.FrameEnergy(scs[i])
			if err != nil {
				return nil, fmt.Errorf("model energy: %w", err)
			}
			pred = eb.Total
		} else {
			gt = ms[i].LatencyMs
			lb, err := s.Latency.FrameLatency(scs[i])
			if err != nil {
				return nil, fmt.Errorf("model latency: %w", err)
			}
			pred = lb.Total
		}
		errPct := 0.0
		if gt != 0 {
			errPct = 100 * abs(pred-gt) / gt
		}
		points[i] = SweepPoint{
			FrameSizePx2: c.size, CPUFreqGHz: c.freq,
			GroundTruth: gt, Proposed: pred, ErrPct: errPct,
		}
	}
	res.Points = points
	preds := make([]float64, len(points))
	gts := make([]float64, len(points))
	for i, p := range points {
		preds[i] = p.Proposed
		gts[i] = p.GroundTruth
	}
	mape, err := stats.MAPE(preds, gts)
	if err != nil {
		return nil, fmt.Errorf("mean error: %w", err)
	}
	res.MeanErrPct = mape
	return res, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Fig4a reproduces Fig. 4(a): end-to-end latency, local inference.
func (s *Suite) Fig4a(ctx context.Context) (*SweepResult, error) {
	return s.runSweep(ctx, "fig4a", "end-to-end latency, local inference (GT vs proposed)",
		"ms", pipeline.ModeLocal, false, 2.74)
}

// Fig4b reproduces Fig. 4(b): end-to-end latency, remote inference
// (no device mobility).
func (s *Suite) Fig4b(ctx context.Context) (*SweepResult, error) {
	return s.runSweep(ctx, "fig4b", "end-to-end latency, remote inference (GT vs proposed)",
		"ms", pipeline.ModeRemote, false, 3.23)
}

// Fig4c reproduces Fig. 4(c): end-to-end energy, local inference.
func (s *Suite) Fig4c(ctx context.Context) (*SweepResult, error) {
	return s.runSweep(ctx, "fig4c", "end-to-end energy, local inference (GT vs proposed)",
		"mJ", pipeline.ModeLocal, true, 3.52)
}

// Fig4d reproduces Fig. 4(d): end-to-end energy, remote inference.
func (s *Suite) Fig4d(ctx context.Context) (*SweepResult, error) {
	return s.runSweep(ctx, "fig4d", "end-to-end energy, remote inference (GT vs proposed)",
		"mJ", pipeline.ModeRemote, true, 5.38)
}

// AoISeriesResult is one sensor's trajectory in Fig. 4(e).
type AoISeriesResult struct {
	// Label names the series (e.g. "200 Hz").
	Label string
	// SensorHz is the generation frequency.
	SensorHz float64
	// GroundTruth is the discrete-event simulated trajectory.
	GroundTruth []aoi.Point
	// Model is the analytical trajectory.
	Model []aoi.Point
	// MeanErrMs is the mean absolute gap between the two.
	MeanErrMs float64
}

// Fig4eResult reproduces Fig. 4(e): AoI over time for three sensor
// frequencies.
type Fig4eResult struct {
	// Series holds one entry per sensor frequency.
	Series []AoISeriesResult
}

// ID implements Result.
func (r *Fig4eResult) ID() string { return "fig4e" }

// Render implements Result.
func (r *Fig4eResult) Render() string {
	var b strings.Builder
	b.WriteString("fig4e — AoI vs time at sensor frequencies 200/100/67 Hz (GT = DES, model = Eq. 23)\n")
	for _, srs := range r.Series {
		fmt.Fprintf(&b, "series %s (mean |GT−model| = %.2f ms)\n", srs.Label, srs.MeanErrMs)
		fmt.Fprintf(&b, "%10s %12s %12s\n", "t(ms)", "GT AoI(ms)", "model AoI(ms)")
		for i := range srs.Model {
			fmt.Fprintf(&b, "%10.0f %12.2f %12.2f\n",
				srs.Model[i].TimeMs, srs.GroundTruth[i].AoIMs, srs.Model[i].AoIMs)
		}
	}
	return b.String()
}

// fig4eBuffer is the input-buffer configuration of the AoI emulation: the
// aggregate sensor stream (200+100+66.67 Hz ≈ 0.367 packets/ms) against a
// 2 packets/ms service rate.
func fig4eBuffer() (queue.MM1, error) {
	lambda, err := queue.CompositeArrivalRate(0.2, 0.1, 0.0667)
	if err != nil {
		return queue.MM1{}, err
	}
	return queue.NewMM1(lambda, 2.0)
}

// Fig4e reproduces the AoI emulation: three sensors generating every 5,
// 10, and 15 ms against an application requiring one update per 5 ms.
func (s *Suite) Fig4e(ctx context.Context) (*Fig4eResult, error) {
	buf, err := fig4eBuffer()
	if err != nil {
		return nil, fmt.Errorf("buffer: %w", err)
	}
	specs := []struct {
		label string
		hz    float64
	}{
		{"200 Hz", 200}, {"100 Hz", 100}, {"67 Hz", 66.67},
	}
	const updates = 18 // covers the paper's 15–90 ms time axis
	// The three series are independent discrete-event simulations, so they
	// run on the sweep engine. The simulation keeps its historical fixed
	// seeds (1000+index) so the figure reproduces the seed repository's
	// trajectories exactly.
	series, err := sweep.Run(ctx, len(specs), s.Workers,
		func(_ context.Context, i int) (AoISeriesResult, error) {
			spec := specs[i]
			sen, err := sensors.NewSensor(spec.label, spec.hz, 30)
			if err != nil {
				return AoISeriesResult{}, fmt.Errorf("sensor %s: %w", spec.label, err)
			}
			cfg := aoi.Config{Sensor: sen, RequestFrequencyHz: 200, Buffer: buf}
			model, err := cfg.Series(updates)
			if err != nil {
				return AoISeriesResult{}, fmt.Errorf("model series %s: %w", spec.label, err)
			}
			gt, err := cfg.Simulate(updates, 0.02, stats.NewRNG(1000+int64(i)))
			if err != nil {
				return AoISeriesResult{}, fmt.Errorf("simulate %s: %w", spec.label, err)
			}
			var gap float64
			for j := range model {
				gap += abs(gt[j].AoIMs - model[j].AoIMs)
			}
			return AoISeriesResult{
				Label: spec.label, SensorHz: spec.hz,
				GroundTruth: gt, Model: model,
				MeanErrMs: gap / float64(len(model)),
			}, nil
		})
	if err != nil {
		return nil, err
	}
	return &Fig4eResult{Series: series}, nil
}

// Fig4fResult reproduces Fig. 4(f): the AoI staircase and RoI of the
// 100 Hz sensor at each update cycle.
type Fig4fResult struct {
	// Points holds the staircase.
	Points []aoi.Point
}

// ID implements Result.
func (r *Fig4fResult) ID() string { return "fig4f" }

// Render implements Result.
func (r *Fig4fResult) Render() string {
	var b strings.Builder
	b.WriteString("fig4f — AoI staircase and RoI, 100 Hz sensor vs 5 ms update requirement\n")
	fmt.Fprintf(&b, "%8s %10s %8s\n", "t(ms)", "AoI(ms)", "RoI")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%8.0f %10.2f %8.3f\n", p.TimeMs, p.AoIMs, p.RoI)
	}
	b.WriteString("paper anchors: AoI 10/15/20 ms ↔ RoI 0.5/0.33/0.25\n")
	return b.String()
}

// Fig4f reproduces the 100 Hz staircase with a near-ideal buffer so the
// paper's exact anchor values (AoI 10/15/20 ms ↔ RoI 0.5/0.33/0.25) are
// visible.
func (s *Suite) Fig4f(_ context.Context) (*Fig4fResult, error) {
	sen, err := sensors.NewSensor("100 Hz", 100, 0)
	if err != nil {
		return nil, err
	}
	buf, err := queue.NewMM1(0.1, 1000)
	if err != nil {
		return nil, err
	}
	cfg := aoi.Config{Sensor: sen, RequestFrequencyHz: 200, Buffer: buf}
	pts, err := cfg.Series(7)
	if err != nil {
		return nil, err
	}
	return &Fig4fResult{Points: pts}, nil
}
