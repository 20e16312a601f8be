package experiments

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"unicode/utf8"

	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/testbed"
)

// GridPoint is one evaluated point of a user-defined sweep grid: bench
// ground truth versus the fitted models, for both latency and energy.
type GridPoint struct {
	// Spec is the grid point configuration.
	Spec sweep.Spec
	// LatencyGTMs and LatencyModelMs are measured vs predicted latency.
	LatencyGTMs    float64
	LatencyModelMs float64
	// LatencyErrPct is |model−GT|/GT in percent.
	LatencyErrPct float64
	// EnergyGTMJ and EnergyModelMJ are measured vs predicted energy.
	EnergyGTMJ    float64
	EnergyModelMJ float64
	// EnergyErrPct is |model−GT|/GT in percent.
	EnergyErrPct float64
}

// GridResult aggregates a full grid sweep.
type GridResult struct {
	// Points holds every grid point in canonical grid order.
	Points []GridPoint
	// MeanLatencyErrPct and MeanEnergyErrPct are the grid-wide MAPEs.
	MeanLatencyErrPct float64
	MeanEnergyErrPct  float64
}

// ID implements Result.
func (r *GridResult) ID() string { return "sweep" }

// Render implements Result: one row per grid point plus the aggregate.
func (r *GridResult) Render() string {
	b := append([]byte(nil), r.RenderHeader()...)
	for _, p := range r.Points {
		b = p.AppendRow(b)
	}
	b = append(b, r.RenderFooter()...)
	return string(b)
}

// RenderHeader returns the table header lines; with RenderRow and
// RenderFooter it lets a streaming caller emit the exact bytes of
// Render incrementally.
func (r *GridResult) RenderHeader() string { return GridHeader(len(r.Points)) }

// GridHeader returns the header lines of an n-point grid table, which a
// streaming caller writes before any point is measured.
func GridHeader(n int) string {
	return fmt.Sprintf("sweep — %d-point scenario grid (GT vs fitted models)\n", n) +
		fmt.Sprintf("%-42s %10s %10s %7s %10s %10s %7s\n",
			"point", "GT(ms)", "model(ms)", "err%", "GT(mJ)", "model(mJ)", "err%")
}

// RenderRow returns the point's table line.
func (p GridPoint) RenderRow() string {
	return string(p.AppendRow(nil))
}

// labelWidth is the label column's width in runes: labels carry the
// two-byte ², so the column is padded by rune count, not byte count.
const labelWidth = 42

// AppendRow appends the point's table line to dst: the label
// left-aligned in labelWidth runes, then latency and energy as
// right-aligned fixed-point columns (GT and model at one decimal in ten
// columns, error percent at two in seven), then a newline. It spells
// numbers with stats.AppendFixed, whose bytes are fmt's %.<prec>f, and
// allocates nothing once dst has room for the row.
func (p GridPoint) AppendRow(dst []byte) []byte {
	start := len(dst)
	dst = p.Spec.AppendLabel(dst)
	dst = appendSpaces(dst, labelWidth-utf8.RuneCount(dst[start:]))
	dst = appendColumn(dst, 10, p.LatencyGTMs, 1)
	dst = appendColumn(dst, 10, p.LatencyModelMs, 1)
	dst = appendColumn(dst, 7, p.LatencyErrPct, 2)
	dst = appendColumn(dst, 10, p.EnergyGTMJ, 1)
	dst = appendColumn(dst, 10, p.EnergyModelMJ, 1)
	dst = appendColumn(dst, 7, p.EnergyErrPct, 2)
	return append(dst, '\n')
}

// appendColumn appends a separating space and v at prec decimals,
// right-aligned in width bytes (a fixed-point spelling is ASCII).
func appendColumn(dst []byte, width int, v float64, prec int) []byte {
	var buf [32]byte
	num := stats.AppendFixed(buf[:0], v, prec)
	dst = appendSpaces(append(dst, ' '), width-len(num))
	return append(dst, num...)
}

// appendSpaces appends n spaces (none when n <= 0).
func appendSpaces(dst []byte, n int) []byte {
	for ; n > 0; n-- {
		dst = append(dst, ' ')
	}
	return dst
}

// RenderFooter returns the aggregate line.
func (r *GridResult) RenderFooter() string {
	return fmt.Sprintf("mean error: latency %.2f%%, energy %.2f%%\n",
		r.MeanLatencyErrPct, r.MeanEnergyErrPct)
}

// CSVHeader is the machine-readable sweep schema.
func CSVHeader() []string {
	return []string{
		"device", "mode", "cnn", "size_px2", "cpu_ghz",
		"gt_latency_ms", "model_latency_ms", "latency_err_pct",
		"gt_energy_mj", "model_energy_mj", "energy_err_pct",
	}
}

// CSVRecord renders the point as one CSV record with full float
// precision (shortest round-trip form), so downstream tooling sees the
// exact evaluated numbers rather than the table's display rounding.
func (p GridPoint) CSVRecord() []string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	cnnName := p.Spec.CNN.Name
	if cnnName == "" {
		cnnName = "default"
	}
	return []string{
		p.Spec.Device.Name, p.Spec.Mode.String(), cnnName,
		f(p.Spec.FrameSizePx2), f(p.Spec.CPUFreqGHz),
		f(p.LatencyGTMs), f(p.LatencyModelMs), f(p.LatencyErrPct),
		f(p.EnergyGTMJ), f(p.EnergyModelMJ), f(p.EnergyErrPct),
	}
}

// WriteCSV writes the grid as CSV: a header row plus one record per
// point, data only (aggregates are derivable), in canonical grid order.
func (r *GridResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(CSVHeader()); err != nil {
		return err
	}
	for _, p := range r.Points {
		if err := cw.Write(p.CSVRecord()); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// RunGrid evaluates an arbitrary device × CNN × mode × resolution × clock
// grid: each point measures ground truth on the suite's execution backend
// with a content-addressed deterministic seed and predicts latency and
// energy with the fitted models. Results are in canonical grid order and
// byte-identical for any backend at any parallelism. Cancel ctx to abort
// mid-sweep.
func (s *Suite) RunGrid(ctx context.Context, grid sweep.Grid) (*GridResult, error) {
	return s.StreamGrid(ctx, grid, nil)
}

// StreamGrid is RunGrid with incremental delivery: emit (when non-nil)
// runs on the caller's goroutine in canonical grid order as soon as each
// prefix of the grid completes — point k is emitted the moment points
// 0..k are all measured, even while later points are in flight. A
// non-nil error from emit cancels the sweep. The returned result holds
// the same points plus the grid-wide aggregates.
func (s *Suite) StreamGrid(ctx context.Context, grid sweep.Grid, emit func(p GridPoint) error) (*GridResult, error) {
	specs := grid.Points()
	scs := make([]*pipeline.Scenario, len(specs))
	for i, spec := range specs {
		sc, err := spec.Scenario()
		if err != nil {
			return nil, err
		}
		scs[i] = sc
	}

	res := &GridResult{Points: make([]GridPoint, 0, len(specs))}
	err := s.streamMeasurements(ctx, scs, func(i int, m testbed.Measurement) error {
		spec := specs[i]
		eb, lb, err := s.Energy.FrameEnergy(scs[i])
		if err != nil {
			return fmt.Errorf("model %s: %w", spec.Label(), err)
		}
		p := GridPoint{
			Spec:           spec,
			LatencyGTMs:    m.LatencyMs,
			LatencyModelMs: lb.Total,
			EnergyGTMJ:     m.EnergyMJ,
			EnergyModelMJ:  eb.Total,
		}
		if p.LatencyGTMs != 0 {
			p.LatencyErrPct = 100 * abs(p.LatencyModelMs-p.LatencyGTMs) / p.LatencyGTMs
		}
		if p.EnergyGTMJ != 0 {
			p.EnergyErrPct = 100 * abs(p.EnergyModelMJ-p.EnergyGTMJ) / p.EnergyGTMJ
		}
		res.Points = append(res.Points, p)
		if emit != nil {
			return emit(p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	points := res.Points
	if len(points) == 0 {
		return res, nil
	}
	latPred := make([]float64, len(points))
	latGT := make([]float64, len(points))
	enPred := make([]float64, len(points))
	enGT := make([]float64, len(points))
	for i, p := range points {
		latPred[i], latGT[i] = p.LatencyModelMs, p.LatencyGTMs
		enPred[i], enGT[i] = p.EnergyModelMJ, p.EnergyGTMJ
	}
	if res.MeanLatencyErrPct, err = stats.MAPE(latPred, latGT); err != nil {
		return nil, fmt.Errorf("latency mean error: %w", err)
	}
	if res.MeanEnergyErrPct, err = stats.MAPE(enPred, enGT); err != nil {
		return nil, fmt.Errorf("energy mean error: %w", err)
	}
	return res, nil
}
