// Package cnn models the convolutional-neural-network side of the XR
// pipeline: the Table II catalog of the 11 CNN architectures used in the
// paper's experiments and the CNN-complexity model of Eq. (12), which maps
// depth, storage size, and depth-scaling factor onto the dimensionless
// complexity C_CNN that divides the allocated computation resource in the
// inference latency models (Eqs. 11 and 13).
package cnn

import (
	"errors"
	"fmt"
)

// Common errors.
var (
	// ErrUnknownModel indicates a catalog lookup miss.
	ErrUnknownModel = errors.New("cnn: unknown model")
	// ErrParams indicates invalid complexity-model inputs.
	ErrParams = errors.New("cnn: invalid model parameters")
)

// Model is one CNN architecture of Table II.
type Model struct {
	// Name is the catalog entry name.
	Name string
	// Depth is the number of layers d_CNN.
	Depth int
	// SizeMB is the storage footprint s_CNN in megabytes.
	SizeMB float64
	// DepthScale is the depth-scaling factor d_scale (1 when unused);
	// YOLOv7 uses compound scaling of 1.5 per Table II.
	DepthScale float64
	// GPUSupport reports hardware acceleration availability.
	GPUSupport bool
	// Quantized marks the TFLite quantized variants.
	Quantized bool
	// EdgeClass marks the large models deployed on the edge server
	// (YOLOv3/YOLOv7); the rest are on-device lightweight models.
	EdgeClass bool
}

// table is the Table II catalog. Lookups read it in place — ranging by
// index, since ranging over the array value would copy it whole — and
// Catalog hands out copies.
var table = [...]Model{
	{Name: "MobileNetv1_240_Float", Depth: 31, SizeMB: 16.9, DepthScale: 1, GPUSupport: true},
	{Name: "MobileNetv1_240_Quant", Depth: 31, SizeMB: 4.3, DepthScale: 1, Quantized: true},
	{Name: "MobileNetv2_300_Float", Depth: 99, SizeMB: 24.2, DepthScale: 1, GPUSupport: true},
	{Name: "MobileNetv2_300_Quant", Depth: 112, SizeMB: 6.9, DepthScale: 1, Quantized: true},
	{Name: "MobileNetv2_640_Float", Depth: 155, SizeMB: 12.3, DepthScale: 1, GPUSupport: true},
	{Name: "MobileNetv2_640_Quant", Depth: 167, SizeMB: 4.5, DepthScale: 1, Quantized: true},
	{Name: "EfficientNet_Float", Depth: 62, SizeMB: 18.6, DepthScale: 1, GPUSupport: true},
	{Name: "EfficientNet_Quant", Depth: 65, SizeMB: 5.4, DepthScale: 1, Quantized: true},
	{Name: "NasNet_Float", Depth: 663, SizeMB: 21.4, DepthScale: 1, GPUSupport: true},
	{Name: "YOLOv3", Depth: 106, SizeMB: 210, DepthScale: 1, GPUSupport: true, EdgeClass: true},
	{Name: "YOLOv7", Depth: 0, SizeMB: 142.8, DepthScale: 1.5, GPUSupport: true, EdgeClass: true},
}

// Catalog returns the Table II models. The slice is fresh on every call.
func Catalog() []Model {
	return append([]Model(nil), table[:]...)
}

// ByName looks a model up in the catalog.
func ByName(name string) (Model, error) {
	for i := range table {
		if table[i].Name == name {
			return table[i], nil
		}
	}
	return Model{}, fmt.Errorf("%w: %q", ErrUnknownModel, name)
}

// DeviceModels returns the lightweight on-device models.
func DeviceModels() []Model {
	var out []Model
	for i := range table {
		if !table[i].EdgeClass {
			out = append(out, table[i])
		}
	}
	return out
}

// EdgeModels returns the large edge-deployed models (YOLOv3, YOLOv7).
func EdgeModels() []Model {
	var out []Model
	for i := range table {
		if table[i].EdgeClass {
			out = append(out, table[i])
		}
	}
	return out
}

// ComplexityCoeffs holds the linear-regression coefficients of Eq. (12):
// C_CNN = C0 + Cd·d_CNN + Cs·s_CNN + Cscale·d_scale.
type ComplexityCoeffs struct {
	C0, Cd, Cs, Cscale float64
}

// ComplexityModel computes the dimensionless CNN complexity used by the
// inference latency models. Complexity applies only to inference — XR
// applications run pre-trained models, never training (Section IV-B).
type ComplexityModel struct {
	// Coeffs are the regression coefficients.
	Coeffs ComplexityCoeffs
	// R2 records the fit quality (0 when unknown).
	R2 float64
}

// PaperComplexityModel returns Eq. (12) with the published coefficients
// (R² = 0.844):
//
//	C_CNN = 2.45 + 0.0025·d_CNN + 0.03·s_CNN + 0.0029·d_scale
func PaperComplexityModel() ComplexityModel {
	return ComplexityModel{
		Coeffs: ComplexityCoeffs{C0: 2.45, Cd: 0.0025, Cs: 0.03, Cscale: 0.0029},
		R2:     0.844,
	}
}

// Complexity evaluates C_CNN for the given architecture parameters.
func (cm ComplexityModel) Complexity(depth int, sizeMB, depthScale float64) (float64, error) {
	if depth < 0 {
		return 0, fmt.Errorf("%w: depth %d", ErrParams, depth)
	}
	if sizeMB <= 0 {
		return 0, fmt.Errorf("%w: size %v MB", ErrParams, sizeMB)
	}
	if depthScale <= 0 {
		return 0, fmt.Errorf("%w: depth scale %v", ErrParams, depthScale)
	}
	c := cm.Coeffs
	return c.C0 + c.Cd*float64(depth) + c.Cs*sizeMB + c.Cscale*depthScale, nil
}

// ComplexityOf evaluates C_CNN for a catalog model.
func (cm ComplexityModel) ComplexityOf(m Model) (float64, error) {
	return cm.Complexity(m.Depth, m.SizeMB, m.DepthScale)
}
