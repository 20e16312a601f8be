// Package core is the public façade of the XR performance-analysis
// modeling framework — the paper's primary contribution. A Framework
// bundles the end-to-end latency model (Section IV), the energy model
// (Section V), and the AoI/RoI model (Section VI) behind a single Analyze
// call over a pipeline.Scenario.
//
// Construct a Framework either from the paper's published regression
// coefficients (NewWithPaperCoefficients) or by re-fitting the regressions
// on the synthetic testbed (NewFitted), which follows the Section VII
// protocol: train on devices XR1/XR3/XR5/XR6, test on XR2/XR4/XR7.
package core

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/aoi"
	"repro/internal/energy"
	"repro/internal/latency"
	"repro/internal/pipeline"
	"repro/internal/queue"
	"repro/internal/sweep"
	"repro/internal/testbed"
)

// ErrAnalyze indicates an analysis failure.
var ErrAnalyze = errors.New("core: analysis failed")

// Framework is the assembled performance-analysis model.
type Framework struct {
	// Latency is the end-to-end latency model.
	Latency latency.Models
	// Energy is the energy-consumption model.
	Energy energy.Models

	// provenance records how a worker process can reconstruct the model
	// bundle — the paper coefficients or a FitConfig — which is what lets
	// AnalyzeBatch dispatch analysis over a sweep backend. Nil for
	// hand-assembled frameworks, which are process-local.
	provenance *provenance
}

// provenance identifies a reconstructible model bundle.
type provenance struct {
	// fit is nil for the paper's published coefficients.
	fit *testbed.FitConfig
}

// NewWithPaperCoefficients builds the framework from the paper's published
// Eq. (3)/(10)/(12)/(21) coefficients.
func NewWithPaperCoefficients() *Framework {
	return &Framework{
		Latency:    latency.PaperModels(),
		Energy:     energy.PaperModels(),
		provenance: &provenance{},
	}
}

// NewFitted builds the framework by generating synthetic testbed datasets
// and re-fitting the four regressions. It returns the fit diagnostics so
// callers can compare against the paper's R² values.
func NewFitted(seed int64, trainRows, testRows int) (*Framework, *testbed.FitReport, error) {
	bench := testbed.NewBench(seed)
	fitted, err := bench.FitModels(trainRows, testRows)
	if err != nil {
		return nil, nil, fmt.Errorf("fit models: %w", err)
	}
	lm := latency.Models{
		Resource:   fitted.Resource,
		Encoder:    fitted.Encoder,
		Complexity: fitted.Complexity,
	}
	fw := &Framework{
		Latency: lm,
		Energy:  energy.Models{Latency: lm, Power: fitted.Power},
		provenance: &provenance{fit: &testbed.FitConfig{
			Seed: seed, TrainRows: trainRows, TestRows: testRows,
		}},
	}
	return fw, &fitted.Report, nil
}

// SensorAoI is one sensor's AoI/RoI assessment within a frame.
type SensorAoI struct {
	// Sensor names the source.
	Sensor string
	// GenFrequencyHz is the sensor's generation frequency.
	GenFrequencyHz float64
	// AverageAoIMs is A^m (Eq. 24) over the frame's updates.
	AverageAoIMs float64
	// RoI is the Relevance-of-Information (Eq. 26).
	RoI float64
	// Fresh reports RoI >= 1.
	Fresh bool
}

// Report is the full per-frame analysis output.
type Report struct {
	// Latency is the per-segment latency breakdown (ms).
	Latency latency.Breakdown
	// Energy is the per-segment energy breakdown (mJ).
	Energy energy.Breakdown
	// Sensors holds per-sensor AoI when the scenario has sensors.
	Sensors []SensorAoI
	// FPSAchievable is 1000/L_tot, the frame rate the pipeline
	// sustains.
	FPSAchievable float64
}

// Analyze evaluates latency, energy, and AoI for one frame of the
// scenario.
func (f *Framework) Analyze(sc *pipeline.Scenario) (*Report, error) {
	if sc == nil {
		return nil, fmt.Errorf("%w: nil scenario", ErrAnalyze)
	}
	eb, lb, err := f.Energy.FrameEnergy(sc)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrAnalyze, err)
	}
	return finishReport(sc, lb, eb)
}

// finishReport derives the scenario-local parts of a report — achievable
// FPS and the AoI/RoI sensor assessment — from the model breakdowns. It
// is shared by Analyze and the backend-dispatched AnalyzeBatch, whose
// workers return only the breakdowns.
func finishReport(sc *pipeline.Scenario, lb latency.Breakdown, eb energy.Breakdown) (*Report, error) {
	rep := &Report{Latency: lb, Energy: eb}
	if lb.Total > 0 {
		rep.FPSAchievable = 1000 / lb.Total
	}

	if n := sc.SensorUpdates; n > 0 && len(sc.Sensors.Sensors) > 0 {
		buf, err := queue.NewMM1(sc.BufferArrivalRatePerMs(), sc.BufferServiceRatePerMs)
		if err != nil {
			return nil, fmt.Errorf("%w: buffer: %v", ErrAnalyze, err)
		}
		// The application's required update frequency: an explicit
		// requirement when the scenario pins one, otherwise N updates
		// per frame processing time, f_req = N/L_tot (Section VI-B).
		reqHz := sc.RequiredUpdateHz
		if reqHz <= 0 {
			reqHz = 1000 * float64(n) / lb.Total
		}
		for _, s := range sc.Sensors.Sensors {
			cfg := aoi.Config{Sensor: s, RequestFrequencyHz: reqHz, Buffer: buf}
			avg, err := cfg.AverageAoIMs(n)
			if err != nil {
				return nil, fmt.Errorf("%w: aoi for %s: %v", ErrAnalyze, s.Name, err)
			}
			roi, err := cfg.RoI(n)
			if err != nil {
				return nil, fmt.Errorf("%w: roi for %s: %v", ErrAnalyze, s.Name, err)
			}
			rep.Sensors = append(rep.Sensors, SensorAoI{
				Sensor:         s.Name,
				GenFrequencyHz: s.GenFrequencyHz,
				AverageAoIMs:   avg,
				RoI:            roi,
				Fresh:          aoi.IsFresh(roi),
			})
		}
	}
	return rep, nil
}

// Render returns a human-readable report.
func (r *Report) Render() string {
	var b strings.Builder
	b.WriteString("XR performance analysis\n")
	fmt.Fprintf(&b, "  end-to-end latency: %.1f ms (≈%.1f fps achievable)\n",
		r.Latency.Total, r.FPSAchievable)
	fmt.Fprintf(&b, "  end-to-end energy:  %.1f mJ (mean power %.2f W)\n",
		r.Energy.Total, r.Energy.MeanPowerW)
	b.WriteString("  latency segments (ms):\n")
	for _, row := range []struct {
		name string
		val  float64
	}{
		{"frame generation", r.Latency.FrameGen},
		{"volumetric data", r.Latency.Volumetric},
		{"external info", r.Latency.External},
		{"rendering (incl. buffer)", r.Latency.Rendering},
		{"frame conversion", r.Latency.Conversion},
		{"frame encoding", r.Latency.Encoding},
		{"local inference", r.Latency.LocalInf},
		{"remote inference", r.Latency.RemoteInf},
		{"transmission", r.Latency.Transmission},
		{"handoff", r.Latency.Handoff},
		{"cooperation", r.Latency.Cooperation},
	} {
		if row.val > 0 {
			fmt.Fprintf(&b, "    %-26s %8.2f\n", row.name, row.val)
		}
	}
	b.WriteString("  energy extras (mJ):\n")
	fmt.Fprintf(&b, "    %-26s %8.2f\n", "thermal (E_θ)", r.Energy.Thermal)
	fmt.Fprintf(&b, "    %-26s %8.2f\n", "base (E_base)", r.Energy.Base)
	if len(r.Sensors) > 0 {
		b.WriteString("  sensor freshness:\n")
		for _, s := range r.Sensors {
			state := "STALE"
			if s.Fresh {
				state = "fresh"
			}
			fmt.Fprintf(&b, "    %-12s %6.1f Hz  AoI %7.2f ms  RoI %6.3f  %s\n",
				s.Sensor, s.GenFrequencyHz, s.AverageAoIMs, s.RoI, state)
		}
	}
	return b.String()
}

// AnalyzeBatch analyzes many scenarios and returns the reports in input
// order. A nil runner evaluates the framework's own models across an
// in-process GOMAXPROCS pool — the fan-out is race-free because the
// models are pure functions of the scenario. A non-nil runner dispatches
// the model evaluation as serializable analyze requests over that sweep
// backend (in-process pool, worker subprocesses, or a memoizing cache);
// workers reconstruct the exact model bundle from the framework's
// provenance — the paper coefficients or the deterministic fit config —
// so every backend returns identical reports. Frameworks assembled by
// hand carry no provenance and reject non-nil runners. Cancel ctx to
// abort a large batch early; the first (lowest-index) scenario error is
// returned.
func (f *Framework) AnalyzeBatch(ctx context.Context, scs []*pipeline.Scenario, r sweep.Runner) ([]*Report, error) {
	if r == nil {
		return sweep.Run(ctx, len(scs), 0,
			func(_ context.Context, i int) (*Report, error) {
				return f.Analyze(scs[i])
			})
	}
	if f.provenance == nil {
		return nil, fmt.Errorf("%w: hand-assembled framework has no serializable model provenance; use a nil runner", ErrAnalyze)
	}
	reqs := make([]testbed.Request, len(scs))
	for i, sc := range scs {
		if sc == nil {
			return nil, fmt.Errorf("%w: nil scenario %d", ErrAnalyze, i)
		}
		reqs[i] = testbed.Request{Op: testbed.OpAnalyze, Scenario: sc, Fit: f.provenance.fit}
	}
	reports := make([]*Report, 0, len(scs))
	err := r.Stream(ctx, reqs, func(i int, m testbed.Measurement) error {
		rep, err := finishReport(scs[i], m.Latency, m.Energy)
		if err != nil {
			return err
		}
		reports = append(reports, rep)
		return nil
	})
	if err != nil {
		// Match the nil-runner path's error identity: analysis failures
		// satisfy errors.Is(err, ErrAnalyze) regardless of backend,
		// while cancelation stays bare.
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, err
		}
		return nil, fmt.Errorf("%w: %w", ErrAnalyze, err)
	}
	return reports, nil
}

// CompareModes analyzes the scenario under both local and remote
// inference and returns the two reports, supporting offload decisions.
// The scenario is not mutated.
func (f *Framework) CompareModes(sc *pipeline.Scenario) (local, remote *Report, err error) {
	if sc == nil {
		return nil, nil, fmt.Errorf("%w: nil scenario", ErrAnalyze)
	}
	lsc := *sc
	lsc.Mode = pipeline.ModeLocal
	rsc := *sc
	rsc.Mode = pipeline.ModeRemote
	local, err = f.Analyze(&lsc)
	if err != nil {
		return nil, nil, fmt.Errorf("local: %w", err)
	}
	remote, err = f.Analyze(&rsc)
	if err != nil {
		return nil, nil, fmt.Errorf("remote: %w", err)
	}
	return local, remote, nil
}
