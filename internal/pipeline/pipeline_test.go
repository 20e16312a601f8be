package pipeline

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/mobility"
	"repro/internal/sensors"
	"repro/internal/wireless"
)

func testDevice(t *testing.T) device.Device {
	t.Helper()
	d, err := device.ByName("XR1")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewScenarioDefaults(t *testing.T) {
	s, err := NewScenario(testDevice(t))
	if err != nil {
		t.Fatal(err)
	}
	if s.Mode != ModeLocal {
		t.Fatalf("default mode = %v, want local", s.Mode)
	}
	if s.FPS != 30 || s.FrameSizePx2 != 500 {
		t.Fatalf("defaults = fps %v, frame %v", s.FPS, s.FrameSizePx2)
	}
	if s.LocalCNN.Name == "" || s.RemoteCNN.Name == "" {
		t.Fatal("default CNNs missing")
	}
	if len(s.Edges) != 1 || s.Edges[0].Share != 1 {
		t.Fatalf("default edges = %+v", s.Edges)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("default scenario must validate: %v", err)
	}
}

func TestNewScenarioOptions(t *testing.T) {
	arr := sensors.NewArray(mustSensor(t, 100, 20))
	h, err := mobility.NewHandoffModel(mobility.HandoffVertical, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	coopLink, err := wireless.NewLink(wireless.WiFi5GHz, 100, 15)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScenario(testDevice(t),
		WithMode(ModeRemote),
		WithFrameSize(700),
		WithCPUFreq(2),
		WithCPUShare(0.8),
		WithSensors(arr, 3),
		WithHandoff(h),
		WithCooperation(CoopConfig{Link: coopLink, DataSizeMB: 0.2}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if s.Mode != ModeRemote || s.FrameSizePx2 != 700 || s.CPUFreqGHz != 2 || s.CPUShare != 0.8 {
		t.Fatalf("options not applied: %+v", s)
	}
	if s.Encoding.FrameSizePx2 != 700 {
		t.Fatal("WithFrameSize must update the encoder frame size")
	}
	if s.Handoff == nil || s.Coop == nil || s.SensorUpdates != 3 {
		t.Fatal("sensor/handoff/coop options not applied")
	}
}

func mustSensor(t *testing.T, hz, dist float64) sensors.Sensor {
	t.Helper()
	s, err := sensors.NewSensor("s", hz, dist)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestValidateRejections(t *testing.T) {
	base := func(t *testing.T) *Scenario {
		s, err := NewScenario(testDevice(t))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	tests := []struct {
		name   string
		mutate func(*Scenario)
		substr string
	}{
		{name: "missing device", mutate: func(s *Scenario) { s.Device = device.Device{} }, substr: "device"},
		{name: "zero cpu freq", mutate: func(s *Scenario) { s.CPUFreqGHz = 0 }, substr: "CPU frequency"},
		{name: "over max cpu freq", mutate: func(s *Scenario) { s.CPUFreqGHz = 99 }, substr: "exceeds"},
		{name: "zero gpu freq", mutate: func(s *Scenario) { s.GPUFreqGHz = 0 }, substr: "GPU frequency"},
		{name: "bad share", mutate: func(s *Scenario) { s.CPUShare = 1.5 }, substr: "CPU share"},
		{name: "bad mode", mutate: func(s *Scenario) { s.Mode = 0 }, substr: "mode"},
		{name: "zero frame", mutate: func(s *Scenario) { s.FrameSizePx2 = 0 }, substr: "frame size"},
		{name: "negative scene", mutate: func(s *Scenario) { s.SceneSizePx2 = -1 }, substr: "scene size"},
		{name: "zero fps", mutate: func(s *Scenario) { s.FPS = 0 }, substr: "fps"},
		{name: "zero buffer mu", mutate: func(s *Scenario) { s.BufferServiceRatePerMs = 0 }, substr: "buffer"},
		{name: "unstable buffer", mutate: func(s *Scenario) { s.BufferServiceRatePerMs = 0.01 }, substr: "unstable"},
		{name: "sensors without updates", mutate: func(s *Scenario) {
			s.Sensors = sensors.NewArray(mustSensor(t, 100, 10))
			s.SensorUpdates = 0
		}, substr: "updates"},
		{name: "local without cnn", mutate: func(s *Scenario) { s.LocalCNN.Name = "" }, substr: "local"},
		{name: "local without converted size", mutate: func(s *Scenario) { s.ConvertedSizePx2 = 0 }, substr: "converted"},
		{name: "bad client share", mutate: func(s *Scenario) { s.ClientShare = 0 }, substr: "client share"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := base(t)
			tt.mutate(s)
			err := s.Validate()
			if !errors.Is(err, ErrConfig) {
				t.Fatalf("Validate error = %v, want ErrConfig", err)
			}
			if !strings.Contains(err.Error(), tt.substr) {
				t.Fatalf("error %q missing %q", err, tt.substr)
			}
		})
	}
}

func TestValidateRemoteRejections(t *testing.T) {
	base := func(t *testing.T) *Scenario {
		s, err := NewScenario(testDevice(t), WithMode(ModeRemote))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	tests := []struct {
		name   string
		mutate func(*Scenario)
	}{
		{name: "no remote cnn", mutate: func(s *Scenario) { s.RemoteCNN.Name = "" }},
		{name: "no edges", mutate: func(s *Scenario) { s.Edges = nil }},
		{name: "bad edge share", mutate: func(s *Scenario) { s.Edges[0].Share = 0 }},
		{name: "bad edge resource", mutate: func(s *Scenario) { s.Edges[0].Resource = 0 }},
		{name: "bad edge bandwidth", mutate: func(s *Scenario) { s.Edges[0].MemBandwidthGBs = 0 }},
		{name: "shares over one", mutate: func(s *Scenario) {
			s.Edges = []EdgeAssignment{
				{Share: 0.7, Resource: 100, MemBandwidthGBs: 100},
				{Share: 0.7, Resource: 100, MemBandwidthGBs: 100},
			}
		}},
		{name: "bad encoding", mutate: func(s *Scenario) { s.Encoding.FPS = 0 }},
		{name: "no link", mutate: func(s *Scenario) { s.EdgeLink = wireless.Link{} }},
		{name: "negative result", mutate: func(s *Scenario) { s.ResultSizeMB = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := base(t)
			tt.mutate(s)
			if err := s.Validate(); err == nil {
				t.Fatal("Validate must reject")
			}
		})
	}
}

func TestFrameDataMB(t *testing.T) {
	// 500×500 RGB = 750000 bytes = 0.75 MB.
	if got := FrameDataMB(500); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("FrameDataMB(500) = %v, want 0.75", got)
	}
	if got := FrameDataMB(300); math.Abs(got-0.27) > 1e-12 {
		t.Fatalf("FrameDataMB(300) = %v, want 0.27", got)
	}
}

func TestBufferArrivalRate(t *testing.T) {
	s, err := NewScenario(testDevice(t))
	if err != nil {
		t.Fatal(err)
	}
	// 30 fps → frame + volumetric = 0.06 packets/ms.
	if got := s.BufferArrivalRatePerMs(); math.Abs(got-0.06) > 1e-12 {
		t.Fatalf("λ = %v, want 0.06", got)
	}
	if got := s.BufferClasses(); got != 2 {
		t.Fatalf("classes = %d, want 2", got)
	}
	s.Sensors = sensors.NewArray(mustSensor(t, 100, 5))
	s.SensorUpdates = 1
	if got := s.BufferArrivalRatePerMs(); math.Abs(got-0.16) > 1e-12 {
		t.Fatalf("λ with sensor = %v, want 0.16", got)
	}
	if got := s.BufferClasses(); got != 3 {
		t.Fatalf("classes with sensor = %d, want 3", got)
	}
}

func TestSegmentStrings(t *testing.T) {
	segs := Segments()
	if len(segs) != 11 {
		t.Fatalf("segments = %d, want 11", len(segs))
	}
	seen := map[string]bool{}
	for _, s := range segs {
		name := s.String()
		if name == "" || strings.HasPrefix(name, "Segment(") {
			t.Fatalf("segment %d renders %q", int(s), name)
		}
		if seen[name] {
			t.Fatalf("duplicate segment name %q", name)
		}
		seen[name] = true
	}
	if Segment(99).String() != "Segment(99)" {
		t.Fatal("unknown segment must render as Segment(n)")
	}
}

func TestModeStrings(t *testing.T) {
	if ModeLocal.String() != "local" || ModeRemote.String() != "remote" {
		t.Fatal("mode strings wrong")
	}
	if InferenceMode(7).String() == "" {
		t.Fatal("unknown mode must render non-empty")
	}
}

func TestWithEdgesCopies(t *testing.T) {
	edges := []EdgeAssignment{{Share: 0.5, Resource: 100, MemBandwidthGBs: 50}}
	s, err := NewScenario(testDevice(t), WithMode(ModeRemote), WithEdges(edges...))
	if err != nil {
		t.Fatal(err)
	}
	edges[0].Share = 0.9
	if s.Edges[0].Share != 0.5 {
		t.Fatal("WithEdges must copy the slice")
	}
}

// TestPointerOptionsCopyPerScenario pins that scenarios built from one
// WithCooperation or WithHandoff option value own separate copies, so
// mutating one scenario never reaches another.
func TestPointerOptionsCopyPerScenario(t *testing.T) {
	h, err := mobility.NewHandoffModel(mobility.HandoffVertical, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	coopLink, err := wireless.NewLink(wireless.WiFi5GHz, 100, 15)
	if err != nil {
		t.Fatal(err)
	}
	opts := []Option{WithHandoff(h), WithCooperation(CoopConfig{Link: coopLink, DataSizeMB: 0.2})}
	a, err := NewScenario(testDevice(t), opts...)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewScenario(testDevice(t), opts...)
	if err != nil {
		t.Fatal(err)
	}
	b.Coop.Link.Loss = wireless.FreeSpace{}
	b.Handoff.Probability = 0.9
	if a.Coop.Link.Loss != nil {
		t.Fatal("setting Coop.Link.Loss on one scenario changed another built from the same option")
	}
	if a.Handoff.Probability != 0.1 {
		t.Fatal("setting Handoff.Probability on one scenario changed another built from the same option")
	}
}

// scenarioSink keeps benchmarked scenarios alive.
var scenarioSink *Scenario

// BenchmarkNewScenario times one scenario per op with the options a
// sweep grid cell passes (mode, frame size, CPU clock).
func BenchmarkNewScenario(b *testing.B) {
	dev, err := device.ByName("XR6")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc, err := NewScenario(dev, WithMode(ModeRemote), WithFrameSize(400), WithCPUFreq(2.0))
		if err != nil {
			b.Fatal(err)
		}
		scenarioSink = sc
	}
}
