// Package device models the XR and edge hardware of the paper's testbed:
// the Table I catalog of seven XR devices and two Nvidia Jetson edge
// servers, the regression-based computation-resource model (Eq. 3), and the
// regression-based mean-power model (Eq. 21) together with base power and
// heat-dissipation accounting (Section V-B).
package device

import (
	"errors"
	"fmt"
)

// Common errors.
var (
	// ErrUnknownDevice indicates a catalog lookup miss.
	ErrUnknownDevice = errors.New("device: unknown device")
	// ErrUtilization indicates a CPU/GPU utilization share outside [0,1].
	ErrUtilization = errors.New("device: utilization must lie in [0,1]")
	// ErrFrequency indicates a non-positive clock frequency.
	ErrFrequency = errors.New("device: frequency must be positive")
)

// Class distinguishes client XR devices from edge servers.
type Class int

const (
	// ClassXR is a client XR device (phone, HMD, glass).
	ClassXR Class = iota + 1
	// ClassEdge is an edge server.
	ClassEdge
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case ClassXR:
		return "xr"
	case ClassEdge:
		return "edge"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Device is one hardware entry of Table I. Clock and bandwidth figures are
// the public specifications of the listed SoCs; the analytical models only
// consume these scalar parameters.
type Device struct {
	// Name is the paper's denotation (XR1…XR7, Edge).
	Name string
	// Model is the commercial device name.
	Model string
	// SoC is the system-on-chip.
	SoC string
	// Class is ClassXR or ClassEdge.
	Class Class
	// CPUGHz is the maximum big-core CPU clock f_c.
	CPUGHz float64
	// GPUGHz is the maximum GPU clock f_g.
	GPUGHz float64
	// RAMGB is the installed memory.
	RAMGB float64
	// MemBandwidthGBs is the memory bandwidth m (GB/s) of Eq. 2.
	MemBandwidthGBs float64
	// OS is the operating system.
	OS string
	// WiFi is the supported 802.11 modes (empty for wired edge).
	WiFi string
	// ReleaseYear is the launch year.
	ReleaseYear int
	// TrainSplit marks devices used for regression training (XR1, XR3,
	// XR5, XR6 per Section VII); the rest are held out for testing.
	TrainSplit bool
}

// table is the Table I catalog. Lookups read it in place — ranging by
// index, since ranging over the array value would copy it whole — and
// Catalog hands out copies.
var table = [...]Device{
	{
		Name: "XR1", Model: "Huawei Mate 40 Pro", SoC: "Kirin 9000 (5 nm)",
		Class: ClassXR, CPUGHz: 3.13, GPUGHz: 0.76, RAMGB: 8,
		MemBandwidthGBs: 44.0, OS: "Android 10", WiFi: "a/b/g/n/ac/ax",
		ReleaseYear: 2020, TrainSplit: true,
	},
	{
		Name: "XR2", Model: "OnePlus 8 Pro", SoC: "Snapdragon 865 (7 nm)",
		Class: ClassXR, CPUGHz: 2.84, GPUGHz: 0.587, RAMGB: 8,
		MemBandwidthGBs: 34.1, OS: "Android 10", WiFi: "a/b/g/n/ac/ax",
		ReleaseYear: 2020, TrainSplit: false,
	},
	{
		Name: "XR3", Model: "Motorola One Macro", SoC: "Helio P70 (12 nm)",
		Class: ClassXR, CPUGHz: 2.0, GPUGHz: 0.9, RAMGB: 4,
		MemBandwidthGBs: 14.9, OS: "Android 9", WiFi: "b/g/n",
		ReleaseYear: 2019, TrainSplit: true,
	},
	{
		Name: "XR4", Model: "Xiaomi Redmi Note8", SoC: "Snapdragon 665 (11 nm)",
		Class: ClassXR, CPUGHz: 2.0, GPUGHz: 0.6, RAMGB: 4,
		MemBandwidthGBs: 14.9, OS: "Android 10", WiFi: "a/b/g/n/ac",
		ReleaseYear: 2020, TrainSplit: false,
	},
	{
		Name: "XR5", Model: "Google Glass Enterprise Edition 2", SoC: "Snapdragon XR1",
		Class: ClassXR, CPUGHz: 2.52, GPUGHz: 0.7, RAMGB: 3,
		MemBandwidthGBs: 14.9, OS: "Android 8.1", WiFi: "a/g/b/n/ac",
		ReleaseYear: 2019, TrainSplit: true,
	},
	{
		Name: "XR6", Model: "Meta Quest 2", SoC: "Snapdragon XR2",
		Class: ClassXR, CPUGHz: 2.84, GPUGHz: 0.587, RAMGB: 6,
		MemBandwidthGBs: 34.1, OS: "Oculus OS", WiFi: "a/g/b/n/ac/ax",
		ReleaseYear: 2020, TrainSplit: true,
	},
	{
		Name: "XR7", Model: "Nvidia Jetson TX2", SoC: "Tegra TX2 (Denver2+A57)",
		Class: ClassXR, CPUGHz: 2.0, GPUGHz: 1.3, RAMGB: 8,
		MemBandwidthGBs: 59.7, OS: "Ubuntu 18.04", WiFi: "",
		ReleaseYear: 2017, TrainSplit: false,
	},
	{
		Name: "Edge", Model: "Nvidia Jetson AGX Xavier", SoC: "Tegra Xavier (ARM v8.2)",
		Class: ClassEdge, CPUGHz: 2.26, GPUGHz: 1.377, RAMGB: 32,
		MemBandwidthGBs: 136.5, OS: "Ubuntu 18.04 LTS", WiFi: "",
		ReleaseYear: 2018, TrainSplit: false,
	},
}

// Catalog returns the Table I devices. The returned slice is fresh on
// every call so callers may mutate their copy.
func Catalog() []Device {
	return append([]Device(nil), table[:]...)
}

// ByName looks a device up by its paper denotation.
func ByName(name string) (Device, error) {
	for i := range table {
		if table[i].Name == name {
			return table[i], nil
		}
	}
	return Device{}, fmt.Errorf("%w: %q", ErrUnknownDevice, name)
}

// TrainDevices returns the devices the paper trains regressions on
// (XR1, XR3, XR5, XR6).
func TrainDevices() []Device {
	var out []Device
	for i := range table {
		if table[i].TrainSplit {
			out = append(out, table[i])
		}
	}
	return out
}

// TestDevices returns the held-out devices (XR2, XR4, XR7).
func TestDevices() []Device {
	var out []Device
	for i := range table {
		if !table[i].TrainSplit && table[i].Class == ClassXR {
			out = append(out, table[i])
		}
	}
	return out
}

// EdgeServer returns the Jetson AGX Xavier edge entry.
func EdgeServer() Device {
	d, err := ByName("Edge")
	if err != nil {
		// The catalog is a compile-time constant; a miss is programmer
		// error, not a runtime condition.
		panic("device: edge server missing from catalog")
	}
	return d
}
