// Package pipeline defines the XR application pipeline of Fig. 1 — the
// nine segments of the object-detection reference application — and the
// Scenario configuration consumed by the latency, energy, and AoI models.
// A Scenario pins one frame's worth of operating conditions: device and
// clocks, CPU/GPU split, inference mode, frame/scene geometry, encoder
// configuration, sensor array, edge assignment, wireless links, mobility,
// and input-buffer service rate.
package pipeline

import (
	"errors"
	"fmt"

	"repro/internal/cnn"
	"repro/internal/codec"
	"repro/internal/device"
	"repro/internal/mobility"
	"repro/internal/sensors"
	"repro/internal/wireless"
)

// Common errors.
var (
	// ErrConfig indicates an invalid scenario configuration.
	ErrConfig = errors.New("pipeline: invalid scenario")
)

// Segment identifies one stage of the XR pipeline (Fig. 1).
type Segment int

// The pipeline segments. Conversion+local inference and encoding+remote
// inference are the two mutually exclusive branches selected by ω_loc in
// Eq. (1).
const (
	SegFrameGeneration Segment = iota + 1
	SegVolumetricData
	SegExternalInfo
	SegFrameConversion
	SegFrameEncoding
	SegLocalInference
	SegRemoteInference
	SegTransmission
	SegHandoff
	SegRendering
	SegCooperation
)

// String returns the segment name.
func (s Segment) String() string {
	switch s {
	case SegFrameGeneration:
		return "frame-generation"
	case SegVolumetricData:
		return "volumetric-data"
	case SegExternalInfo:
		return "external-info"
	case SegFrameConversion:
		return "frame-conversion"
	case SegFrameEncoding:
		return "frame-encoding"
	case SegLocalInference:
		return "local-inference"
	case SegRemoteInference:
		return "remote-inference"
	case SegTransmission:
		return "transmission"
	case SegHandoff:
		return "handoff"
	case SegRendering:
		return "rendering"
	case SegCooperation:
		return "cooperation"
	default:
		return fmt.Sprintf("Segment(%d)", int(s))
	}
}

// Segments lists all pipeline segments in order.
func Segments() []Segment {
	return []Segment{
		SegFrameGeneration, SegVolumetricData, SegExternalInfo,
		SegFrameConversion, SegFrameEncoding, SegLocalInference,
		SegRemoteInference, SegTransmission, SegHandoff,
		SegRendering, SegCooperation,
	}
}

// InferenceMode selects local (ω_loc = 1) or remote (ω_loc = 0)
// inference in Eq. (1).
type InferenceMode int

const (
	// ModeLocal runs the lightweight on-device CNN.
	ModeLocal InferenceMode = iota + 1
	// ModeRemote offloads inference to the edge server(s).
	ModeRemote
)

// String returns the mode name.
func (m InferenceMode) String() string {
	switch m {
	case ModeLocal:
		return "local"
	case ModeRemote:
		return "remote"
	default:
		return fmt.Sprintf("InferenceMode(%d)", int(m))
	}
}

// EdgeAssignment describes one edge server's share of a split remote
// inference task (Eq. 15).
type EdgeAssignment struct {
	// Share is ω_edge^e, this server's portion of the inference task.
	Share float64
	// Resource is the allocated computation resource c_ε.
	Resource float64
	// MemBandwidthGBs is the server memory bandwidth m_ε.
	MemBandwidthGBs float64
}

// CoopConfig configures the XR-cooperation segment (Eq. 18).
type CoopConfig struct {
	// Link is the wireless path to the cooperative XR device.
	Link wireless.Link
	// DataSizeMB is δ_f4, the scene or fragment payload.
	DataSizeMB float64
	// IncludeInTotal adds L_coop/E_coop to the end-to-end figures;
	// by default cooperation runs parallel to rendering and is excluded
	// (Section IV-B).
	IncludeInTotal bool
}

// Scenario is one frame's operating configuration.
type Scenario struct {
	// Device is the client XR device.
	Device device.Device
	// CPUFreqGHz and GPUFreqGHz are the operating clocks f_c, f_g
	// (bounded by the device maxima).
	CPUFreqGHz float64
	GPUFreqGHz float64
	// CPUShare is ω_c, the CPU share of the computation split.
	CPUShare float64
	// Mode selects local vs remote inference.
	Mode InferenceMode
	// ClientShare is ω_client ∈ [0,1], the portion of a split inference
	// task kept on the device (Eq. 11).
	ClientShare float64
	// FrameSizePx2 is s_f1 in the paper's pixel² unit (Fig. 4 sweeps
	// 300–700, interpreted as the square frame side length).
	FrameSizePx2 float64
	// SceneSizePx2 is s_vol, the virtual scene size (Eq. 4).
	SceneSizePx2 float64
	// ConvertedSizePx2 is s_f2, the CNN input size after scaling and
	// cropping (Eq. 11).
	ConvertedSizePx2 float64
	// FPS is the capture frame rate n_fps.
	FPS float64
	// Encoding configures H.264 for the remote branch.
	Encoding codec.EncodingParams
	// LocalCNN is the lightweight on-device model.
	LocalCNN cnn.Model
	// RemoteCNN is the large edge model.
	RemoteCNN cnn.Model
	// Sensors is the external sensor array.
	Sensors sensors.Array
	// SensorUpdates is N, the updates required per frame.
	SensorUpdates int
	// RequiredUpdateHz optionally pins the application's information
	// freshness requirement f_req (Section VI-B; the paper's emulation
	// uses 200 Hz — one update per 5 ms). Zero derives f_req = N/L_tot
	// from the frame processing time.
	RequiredUpdateHz float64
	// Edges lists the edge servers for remote inference; shares must
	// satisfy ω_client + Σω_e = ω_task ≤ 1 scale.
	Edges []EdgeAssignment
	// EdgeLink is the wireless path to the (first) edge server.
	EdgeLink wireless.Link
	// ResultSizeMB is the inference result payload returned to the
	// renderer.
	ResultSizeMB float64
	// Handoff optionally models mobility-induced handoff (Eq. 17);
	// nil means a static device.
	Handoff *mobility.HandoffModel
	// Coop optionally configures XR cooperation.
	Coop *CoopConfig
	// BufferServiceRatePerMs is µ of the M/M/1 input buffer (Eq. 7/22).
	BufferServiceRatePerMs float64
}

// FrameDataMB converts the paper's pixel² frame-size unit into a raw RGB
// payload δ in megabytes: a sizePx² × sizePx² frame at 3 bytes/pixel.
func FrameDataMB(sizePx2 float64) float64 {
	return sizePx2 * sizePx2 * 3 / 1e6
}

// BufferArrivalRatePerMs returns the aggregate Poisson arrival rate λ
// offered to the input buffer: one captured frame and one volumetric
// snapshot per frame interval plus the sensor packet superposition.
func (s *Scenario) BufferArrivalRatePerMs() float64 {
	frameRate := s.FPS / 1000
	return 2*frameRate + s.Sensors.ArrivalRatePerMs()
}

// BufferClasses returns how many data classes queue in the input buffer
// for Eq. (7): captured frame, volumetric data, and (when sensors are
// attached) external information.
func (s *Scenario) BufferClasses() int {
	if len(s.Sensors.Sensors) > 0 {
		return 3
	}
	return 2
}

// HasPathLoss reports whether the scenario carries a path-loss model on
// either wireless link. Such a model is process-local (it never crosses
// the wire) and may draw from its own stream on every evaluation
// (LogDistance shadowing), so a caller that evaluates a scenario once and
// reuses the figures must evaluate it every time instead.
func (s *Scenario) HasPathLoss() bool {
	return s.EdgeLink.Loss != nil || (s.Coop != nil && s.Coop.Link.Loss != nil)
}

// Validate checks scenario consistency. It is called by every model entry
// point so misconfiguration fails loudly rather than producing plausible
// nonsense.
func (s *Scenario) Validate() error {
	switch {
	case s.Device.Name == "":
		return fmt.Errorf("%w: missing device", ErrConfig)
	case s.CPUFreqGHz <= 0:
		return fmt.Errorf("%w: CPU frequency %v GHz", ErrConfig, s.CPUFreqGHz)
	case s.CPUFreqGHz > s.Device.CPUGHz+1e-9:
		return fmt.Errorf("%w: CPU frequency %v exceeds %s max %v",
			ErrConfig, s.CPUFreqGHz, s.Device.Name, s.Device.CPUGHz)
	case s.GPUFreqGHz <= 0:
		return fmt.Errorf("%w: GPU frequency %v GHz", ErrConfig, s.GPUFreqGHz)
	case s.CPUShare < 0 || s.CPUShare > 1:
		return fmt.Errorf("%w: CPU share %v", ErrConfig, s.CPUShare)
	case s.Mode != ModeLocal && s.Mode != ModeRemote:
		return fmt.Errorf("%w: inference mode %v", ErrConfig, s.Mode)
	case s.FrameSizePx2 <= 0:
		return fmt.Errorf("%w: frame size %v px²", ErrConfig, s.FrameSizePx2)
	case s.SceneSizePx2 < 0:
		return fmt.Errorf("%w: scene size %v px²", ErrConfig, s.SceneSizePx2)
	case s.FPS <= 0:
		return fmt.Errorf("%w: fps %v", ErrConfig, s.FPS)
	case s.BufferServiceRatePerMs <= 0:
		return fmt.Errorf("%w: buffer service rate %v /ms", ErrConfig, s.BufferServiceRatePerMs)
	}
	if len(s.Sensors.Sensors) > 0 && s.SensorUpdates <= 0 {
		return fmt.Errorf("%w: %d sensors but %d updates per frame",
			ErrConfig, len(s.Sensors.Sensors), s.SensorUpdates)
	}
	if lambda := s.BufferArrivalRatePerMs(); lambda >= s.BufferServiceRatePerMs {
		return fmt.Errorf("%w: input buffer unstable (λ=%v ≥ µ=%v)",
			ErrConfig, lambda, s.BufferServiceRatePerMs)
	}

	switch s.Mode {
	case ModeLocal:
		if s.ConvertedSizePx2 <= 0 {
			return fmt.Errorf("%w: converted frame size %v px²", ErrConfig, s.ConvertedSizePx2)
		}
		if s.LocalCNN.Name == "" {
			return fmt.Errorf("%w: local mode without a local CNN", ErrConfig)
		}
		if s.ClientShare <= 0 || s.ClientShare > 1 {
			return fmt.Errorf("%w: client share %v", ErrConfig, s.ClientShare)
		}
	case ModeRemote:
		if s.RemoteCNN.Name == "" {
			return fmt.Errorf("%w: remote mode without a remote CNN", ErrConfig)
		}
		if len(s.Edges) == 0 {
			return fmt.Errorf("%w: remote mode without edge servers", ErrConfig)
		}
		var shareSum float64
		for i, e := range s.Edges {
			if e.Share <= 0 || e.Share > 1 {
				return fmt.Errorf("%w: edge %d share %v", ErrConfig, i, e.Share)
			}
			if e.Resource <= 0 {
				return fmt.Errorf("%w: edge %d resource %v", ErrConfig, i, e.Resource)
			}
			if e.MemBandwidthGBs <= 0 {
				return fmt.Errorf("%w: edge %d memory bandwidth %v", ErrConfig, i, e.MemBandwidthGBs)
			}
			shareSum += e.Share
		}
		if shareSum > 1+1e-9 {
			return fmt.Errorf("%w: edge shares sum to %v > 1", ErrConfig, shareSum)
		}
		if err := s.Encoding.Validate(); err != nil {
			return fmt.Errorf("encoding: %w", err)
		}
		if s.EdgeLink.ThroughputMbps <= 0 {
			return fmt.Errorf("%w: remote mode needs an edge link", ErrConfig)
		}
		if s.ResultSizeMB < 0 {
			return fmt.Errorf("%w: result size %v MB", ErrConfig, s.ResultSizeMB)
		}
	}
	if s.Coop != nil {
		if s.Coop.Link.ThroughputMbps <= 0 {
			return fmt.Errorf("%w: cooperation without a link", ErrConfig)
		}
		if s.Coop.DataSizeMB < 0 {
			return fmt.Errorf("%w: cooperation payload %v MB", ErrConfig, s.Coop.DataSizeMB)
		}
	}
	return nil
}

// Option mutates a scenario during construction.
type Option func(*Scenario)

// WithMode sets the inference mode.
func WithMode(m InferenceMode) Option { return func(s *Scenario) { s.Mode = m } }

// WithFrameSize sets s_f1 (pixel² unit).
func WithFrameSize(px2 float64) Option {
	return func(s *Scenario) {
		s.FrameSizePx2 = px2
		s.Encoding.FrameSizePx2 = px2
	}
}

// WithCPUFreq sets the operating CPU clock.
func WithCPUFreq(ghz float64) Option { return func(s *Scenario) { s.CPUFreqGHz = ghz } }

// WithCPUShare sets ω_c.
func WithCPUShare(wc float64) Option { return func(s *Scenario) { s.CPUShare = wc } }

// WithSensors attaches a sensor array requiring updates per frame.
func WithSensors(arr sensors.Array, updates int) Option {
	return func(s *Scenario) {
		s.Sensors = arr
		s.SensorUpdates = updates
	}
}

// WithRequiredUpdateHz pins the application's freshness requirement f_req.
func WithRequiredUpdateHz(hz float64) Option {
	return func(s *Scenario) { s.RequiredUpdateHz = hz }
}

// WithHandoff attaches a mobility handoff model. Each scenario built
// with the option gets its own copy.
func WithHandoff(h mobility.HandoffModel) Option {
	return func(s *Scenario) {
		h := h
		s.Handoff = &h
	}
}

// WithCooperation attaches an XR-cooperation segment. Each scenario
// built with the option gets its own copy.
func WithCooperation(c CoopConfig) Option {
	return func(s *Scenario) {
		c := c
		s.Coop = &c
	}
}

// WithEdges replaces the edge assignment list.
func WithEdges(edges ...EdgeAssignment) Option {
	return func(s *Scenario) {
		s.Edges = make([]EdgeAssignment, len(edges))
		copy(s.Edges, edges)
	}
}

// NewScenario builds the reference object-detection scenario of Fig. 1 on
// the given device and applies options. Defaults: 30 fps, 500 px² frames,
// CNN input 300 px², MobileNetv2 locally, YOLOv3 remotely, one Jetson-class
// edge server over 5 GHz Wi-Fi at 25 m, balanced CPU/GPU split, and a
// stable input buffer.
func NewScenario(dev device.Device, opts ...Option) (*Scenario, error) {
	localCNN, err := cnn.ByName("MobileNetv2_300_Float")
	if err != nil {
		return nil, fmt.Errorf("default local cnn: %w", err)
	}
	remoteCNN, err := cnn.ByName("YOLOv3")
	if err != nil {
		return nil, fmt.Errorf("default remote cnn: %w", err)
	}
	link, err := wireless.NewLink(wireless.WiFi5GHz, 120, 25)
	if err != nil {
		return nil, fmt.Errorf("default edge link: %w", err)
	}

	resModel := device.PaperResourceModel()
	clientRes, err := resModel.Compute(dev.CPUGHz, dev.GPUGHz, 0.5)
	if err != nil {
		return nil, fmt.Errorf("default edge resource: %w", err)
	}
	edge := device.EdgeServer()

	s := &Scenario{
		Device:           dev,
		CPUFreqGHz:       dev.CPUGHz,
		GPUFreqGHz:       dev.GPUGHz,
		CPUShare:         0.5,
		Mode:             ModeLocal,
		ClientShare:      1,
		FrameSizePx2:     500,
		SceneSizePx2:     500,
		ConvertedSizePx2: 300,
		FPS:              30,
		Encoding:         codec.DefaultParams(500),
		LocalCNN:         localCNN,
		RemoteCNN:        remoteCNN,
		Edges: []EdgeAssignment{{
			Share:           1,
			Resource:        device.EdgeResource(clientRes),
			MemBandwidthGBs: edge.MemBandwidthGBs,
		}},
		EdgeLink:               link,
		ResultSizeMB:           0.01,
		BufferServiceRatePerMs: 1.0,
	}
	for _, opt := range opts {
		opt(s)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}
