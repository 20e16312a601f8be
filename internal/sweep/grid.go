package sweep

import (
	"fmt"
	"strconv"

	"repro/internal/cnn"
	"repro/internal/device"
	"repro/internal/pipeline"
	"repro/internal/stats"
)

// Spec is one fully-resolved grid point: the scenario knobs the paper's
// evaluation grids range over.
type Spec struct {
	// Device is the client XR device.
	Device device.Device
	// Mode is the inference mode.
	Mode pipeline.InferenceMode
	// CNN optionally overrides the scenario's CNN for the chosen mode;
	// a zero-value model keeps the pipeline defaults.
	CNN cnn.Model
	// FrameSizePx2 is the frame size in the paper's pixel² unit.
	FrameSizePx2 float64
	// CPUFreqGHz is the requested operating clock; it is clamped to the
	// device maximum so one grid can span heterogeneous devices. Zero
	// means the device maximum.
	CPUFreqGHz float64
}

// Label renders a compact point identifier for tables and logs.
func (s Spec) Label() string {
	var buf [64]byte
	return string(s.AppendLabel(buf[:0]))
}

// AppendLabel appends the point's label to dst: device, mode and CNN
// names, then the frame size in whole pixel² and the effective clock to
// two significant digits, as "XR1/local/default/500px²/2.4GHz".
func (s Spec) AppendLabel(dst []byte) []byte {
	cnnName := s.CNN.Name
	if cnnName == "" {
		cnnName = "default"
	}
	dst = append(dst, s.Device.Name...)
	dst = append(dst, '/')
	dst = append(dst, s.Mode.String()...)
	dst = append(dst, '/')
	dst = append(dst, cnnName...)
	dst = append(dst, '/')
	dst = stats.AppendFixed(dst, s.FrameSizePx2, 0)
	dst = append(dst, "px²/"...)
	dst = strconv.AppendFloat(dst, s.effectiveFreq(), 'g', 2, 64)
	return append(dst, "GHz"...)
}

func (s Spec) effectiveFreq() float64 {
	f := s.CPUFreqGHz
	if f <= 0 || f > s.Device.CPUGHz {
		f = s.Device.CPUGHz
	}
	return f
}

// Scenario materializes the point as a pipeline scenario.
func (s Spec) Scenario(extra ...pipeline.Option) (*pipeline.Scenario, error) {
	opts := []pipeline.Option{
		pipeline.WithMode(s.Mode),
		pipeline.WithFrameSize(s.FrameSizePx2),
		pipeline.WithCPUFreq(s.effectiveFreq()),
	}
	if s.CNN.Name != "" {
		m := s.CNN
		opts = append(opts, func(sc *pipeline.Scenario) {
			switch s.Mode {
			case pipeline.ModeLocal:
				sc.LocalCNN = m
			case pipeline.ModeRemote:
				sc.RemoteCNN = m
			}
		})
	}
	opts = append(opts, extra...)
	sc, err := pipeline.NewScenario(s.Device, opts...)
	if err != nil {
		return nil, fmt.Errorf("sweep point %s: %w", s.Label(), err)
	}
	return sc, nil
}

// Grid is a cartesian scenario grid: the product of every non-empty
// dimension, enumerated in row-major order (devices outermost, CPU
// frequencies innermost) so point indices are stable for a given grid
// shape.
type Grid struct {
	// Devices is the device axis (required).
	Devices []device.Device
	// Modes is the inference-mode axis; empty means local only.
	Modes []pipeline.InferenceMode
	// CNNs is the model axis; empty keeps the pipeline defaults.
	CNNs []cnn.Model
	// FrameSizes is the resolution axis (pixel² unit); empty means the
	// pipeline default of 500.
	FrameSizes []float64
	// CPUFreqs is the clock axis in GHz; empty means each device's
	// maximum. Entries are clamped per device.
	CPUFreqs []float64
}

func (g Grid) modes() []pipeline.InferenceMode {
	if len(g.Modes) == 0 {
		return []pipeline.InferenceMode{pipeline.ModeLocal}
	}
	return g.Modes
}

func (g Grid) cnns() []cnn.Model {
	if len(g.CNNs) == 0 {
		return []cnn.Model{{}}
	}
	return g.CNNs
}

func (g Grid) frameSizes() []float64 {
	if len(g.FrameSizes) == 0 {
		return []float64{500}
	}
	return g.FrameSizes
}

func (g Grid) cpuFreqs() []float64 {
	if len(g.CPUFreqs) == 0 {
		return []float64{0}
	}
	return g.CPUFreqs
}

// Size returns the number of grid points.
func (g Grid) Size() int {
	return len(g.Devices) * len(g.modes()) * len(g.cnns()) *
		len(g.frameSizes()) * len(g.cpuFreqs())
}

// Points enumerates the grid in its canonical order.
func (g Grid) Points() []Spec {
	out := make([]Spec, 0, g.Size())
	for _, dev := range g.Devices {
		for _, mode := range g.modes() {
			for _, model := range g.cnns() {
				for _, size := range g.frameSizes() {
					for _, freq := range g.cpuFreqs() {
						out = append(out, Spec{
							Device:       dev,
							Mode:         mode,
							CNN:          model,
							FrameSizePx2: size,
							CPUFreqGHz:   freq,
						})
					}
				}
			}
		}
	}
	return out
}
