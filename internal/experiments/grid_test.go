package experiments

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cnn"
	"repro/internal/device"
	"repro/internal/pipeline"
	"repro/internal/sweep"
)

// sprintfRow is the table row's reference spelling through fmt: the
// format AppendRow reproduces without it.
func sprintfRow(p GridPoint) string {
	return fmt.Sprintf("%-42s %10.1f %10.1f %7.2f %10.1f %10.1f %7.2f\n",
		sprintfLabel(p.Spec),
		p.LatencyGTMs, p.LatencyModelMs, p.LatencyErrPct,
		p.EnergyGTMJ, p.EnergyModelMJ, p.EnergyErrPct)
}

// sprintfLabel is the point label's reference spelling through fmt,
// with the clock clamped to the device maximum as sweep.Spec does.
func sprintfLabel(s sweep.Spec) string {
	cnnName := s.CNN.Name
	if cnnName == "" {
		cnnName = "default"
	}
	freq := s.CPUFreqGHz
	if freq <= 0 || freq > s.Device.CPUGHz {
		freq = s.Device.CPUGHz
	}
	return fmt.Sprintf("%s/%s/%s/%.0fpx²/%.2gGHz",
		s.Device.Name, s.Mode, cnnName, s.FrameSizePx2, freq)
}

// fuzzPoint builds a grid point from fuzz inputs.
func fuzzPoint(dev, model string, mode uint8, maxGHz, freq, size float64, v [6]float64) GridPoint {
	return GridPoint{
		Spec: sweep.Spec{
			Device:       device.Device{Name: dev, CPUGHz: maxGHz},
			Mode:         pipeline.InferenceMode(mode % 3),
			CNN:          cnn.Model{Name: model},
			FrameSizePx2: size,
			CPUFreqGHz:   freq,
		},
		LatencyGTMs: v[0], LatencyModelMs: v[1], LatencyErrPct: v[2],
		EnergyGTMJ: v[3], EnergyModelMJ: v[4], EnergyErrPct: v[5],
	}
}

// FuzzGridRow is the differential test of the table row: for any point,
// AppendRow (and RenderRow, and the label) must equal the fmt spelling
// byte for byte. The seeds hold the cases a fixed-point formatter gets
// wrong: exact ties and near-ties at each precision, rounding that
// carries into a new digit, negative zero and small negatives, the
// edges of the fast path, non-finite values, frame sizes with .5
// halves, and labels of multi-byte runes, invalid UTF-8 and overflowing
// length.
func FuzzGridRow(f *testing.F) {
	values := []float64{
		0.05, 0.15, 0.25, 0.125, 0.375, 0.005, 0.995, 0.996,
		2.25, 2.35, 1.125, 1.005, 1.015, 9.95, 9.96, 9.995, 9.996,
		99.95, 99.96, 99.995, 999.95, 999.96, 999.995, 12345.65, 12345.675,
		math.Copysign(0, -1), -0.04, -0.05, -0.004, -9.96, -999.95,
		1e15 - 1, 1e15, 1e15 + 1, 1e20, -1e20, 1e300, 5e-324,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	sizes := []float64{500, 0.5, 1.5, 2.5, 200.5, 201.5, 999.5, 1599.5, 612.49999999999994, -0.5, math.NaN()}
	freqs := []float64{0, 1.25, 0.95, 0.55, 2.45, 3, 99.5, math.Inf(1)}
	names := []string{"XR1", "Edge", "é漢字²", "\xff\xfe", "an-overflowing-device-name-longer-than-the-column"}
	for i, v := range values {
		vs := [6]float64{v, -v, v, v / 10, v * 10, -v}
		f.Add(names[i%len(names)], "", uint8(i), 2.4, freqs[i%len(freqs)], sizes[i%len(sizes)],
			vs[0], vs[1], vs[2], vs[3], vs[4], vs[5])
	}
	for i, size := range sizes {
		f.Add("XR6", "EfficientNet_Float", uint8(i), 2.84, freqs[i%len(freqs)], size, 83.25, 81.95, 1.645, 412.35, 398.05, 3.445)
	}
	f.Fuzz(func(t *testing.T, dev, model string, mode uint8, maxGHz, freq, size, a, b, c, d, e, g float64) {
		p := fuzzPoint(dev, model, mode, maxGHz, freq, size, [6]float64{a, b, c, d, e, g})
		want := sprintfRow(p)
		if got := string(p.AppendRow([]byte("prefix"))); got != "prefix"+want {
			t.Fatalf("AppendRow differs from fmt:\n got %q\nwant %q", got[len("prefix"):], want)
		}
		if got := p.RenderRow(); got != want {
			t.Fatalf("RenderRow differs from fmt:\n got %q\nwant %q", got, want)
		}
		if got, want := p.Spec.Label(), sprintfLabel(p.Spec); got != want {
			t.Fatalf("Label differs from fmt:\n got %q\nwant %q", got, want)
		}
	})
}

// benchPoint is a grid point shaped like a grid-net-cold row.
func benchPoint() GridPoint {
	return fuzzPoint("XR6", "EfficientNet_Float", uint8(pipeline.ModeRemote), 2.84, 1.45, 612.5,
		[6]float64{83.2714, 81.9033, 1.6432, 412.3391, 398.0517, 3.4627})
}

// TestAppendRowAllocs pins AppendRow into a buffer with room for the
// row to no allocation.
func TestAppendRowAllocs(t *testing.T) {
	p := benchPoint()
	buf := p.AppendRow(nil)
	if allocs := testing.AllocsPerRun(100, func() { buf = p.AppendRow(buf[:0]) }); allocs != 0 {
		t.Fatalf("AppendRow made %.1f allocations, want 0", allocs)
	}
}

// BenchmarkGridRow times one table row appended into a reused buffer,
// the streamed sweep table's per-cell render cost.
func BenchmarkGridRow(b *testing.B) {
	p := benchPoint()
	buf := p.AppendRow(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = p.AppendRow(buf[:0])
	}
}
