package device

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestCatalogCompleteness(t *testing.T) {
	cat := Catalog()
	if len(cat) != 8 {
		t.Fatalf("catalog size = %d, want 8 (XR1–XR7 + Edge)", len(cat))
	}
	names := map[string]bool{}
	for _, d := range cat {
		if d.Name == "" || d.Model == "" || d.SoC == "" {
			t.Fatalf("incomplete entry: %+v", d)
		}
		if d.CPUGHz <= 0 || d.GPUGHz <= 0 || d.RAMGB <= 0 || d.MemBandwidthGBs <= 0 {
			t.Fatalf("non-positive spec in %s", d.Name)
		}
		if names[d.Name] {
			t.Fatalf("duplicate device name %s", d.Name)
		}
		names[d.Name] = true
	}
	for _, want := range []string{"XR1", "XR2", "XR3", "XR4", "XR5", "XR6", "XR7", "Edge"} {
		if !names[want] {
			t.Fatalf("catalog missing %s", want)
		}
	}
}

func TestCatalogReturnsCopy(t *testing.T) {
	a := Catalog()
	a[0].Name = "mutated"
	for i := range a {
		a[i].Model = "mutated"
	}
	b := Catalog()
	if b[0].Name == "mutated" {
		t.Fatal("Catalog must return a fresh slice")
	}
	// Lookups read their own table, which no Catalog copy reaches.
	if d, err := ByName("XR6"); err != nil || d.Model != "Meta Quest 2" {
		t.Fatalf("ByName after editing a Catalog copy = %q, %v", d.Model, err)
	}
	if e := EdgeServer(); e.Model != "Nvidia Jetson AGX Xavier" {
		t.Fatalf("EdgeServer after editing a Catalog copy = %q", e.Model)
	}
}

// TestLookupsDoNotAllocate pins ByName and EdgeServer to the package
// table: a lookup copies out one entry, never the whole catalog.
func TestLookupsDoNotAllocate(t *testing.T) {
	var sink Device
	allocs := testing.AllocsPerRun(100, func() {
		d, err := ByName("XR6")
		if err != nil {
			t.Fatal(err)
		}
		sink = d
		sink = EdgeServer()
	})
	if allocs != 0 {
		t.Fatalf("ByName + EdgeServer made %.1f allocations, want 0", allocs)
	}
	_ = sink
}

func TestByName(t *testing.T) {
	d, err := ByName("XR6")
	if err != nil {
		t.Fatal(err)
	}
	if d.Model != "Meta Quest 2" {
		t.Fatalf("XR6 model = %q", d.Model)
	}
	if _, err := ByName("XR99"); !errors.Is(err, ErrUnknownDevice) {
		t.Fatalf("unknown lookup error = %v", err)
	}
}

func TestTrainTestSplit(t *testing.T) {
	train := TrainDevices()
	test := TestDevices()
	wantTrain := map[string]bool{"XR1": true, "XR3": true, "XR5": true, "XR6": true}
	wantTest := map[string]bool{"XR2": true, "XR4": true, "XR7": true}
	if len(train) != len(wantTrain) {
		t.Fatalf("train devices = %d, want %d", len(train), len(wantTrain))
	}
	for _, d := range train {
		if !wantTrain[d.Name] {
			t.Fatalf("unexpected train device %s", d.Name)
		}
	}
	if len(test) != len(wantTest) {
		t.Fatalf("test devices = %d, want %d", len(test), len(wantTest))
	}
	for _, d := range test {
		if !wantTest[d.Name] {
			t.Fatalf("unexpected test device %s", d.Name)
		}
	}
}

func TestEdgeServer(t *testing.T) {
	e := EdgeServer()
	if e.Class != ClassEdge {
		t.Fatalf("edge class = %v", e.Class)
	}
	if e.Model != "Nvidia Jetson AGX Xavier" {
		t.Fatalf("edge model = %q", e.Model)
	}
}

func TestClassString(t *testing.T) {
	if ClassXR.String() != "xr" || ClassEdge.String() != "edge" {
		t.Fatal("class strings wrong")
	}
	if Class(9).String() == "" {
		t.Fatal("unknown class must render non-empty")
	}
}

func TestPaperResourceModelValues(t *testing.T) {
	m := PaperResourceModel()
	// Pure CPU at 3 GHz: 18.24 + 1.84·9 − 6.02·3 = 16.74.
	got, err := m.Compute(3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-16.74) > 1e-9 {
		t.Fatalf("c(3GHz CPU) = %v, want 16.74", got)
	}
	// Pure GPU at 1 GHz: 193.67 + 400.96 − 558.29 = 36.34.
	got, err = m.Compute(1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-36.34) > 1e-9 {
		t.Fatalf("c(1GHz GPU) = %v, want 36.34", got)
	}
	if m.R2 != 0.87 {
		t.Fatalf("paper R² = %v, want 0.87", m.R2)
	}
}

func TestResourceModelValidation(t *testing.T) {
	m := PaperResourceModel()
	if _, err := m.Compute(2, 1, -0.1); !errors.Is(err, ErrUtilization) {
		t.Fatal("negative utilization must error")
	}
	if _, err := m.Compute(2, 1, 1.1); !errors.Is(err, ErrUtilization) {
		t.Fatal("utilization > 1 must error")
	}
	if _, err := m.Compute(0, 1, 1); !errors.Is(err, ErrFrequency) {
		t.Fatal("zero CPU freq with CPU share must error")
	}
	if _, err := m.Compute(2, 0, 0); !errors.Is(err, ErrFrequency) {
		t.Fatal("zero GPU freq with GPU share must error")
	}
	// Unused branch's frequency is not validated: a pure-GPU task does
	// not need a CPU clock.
	if _, err := m.Compute(0, 1, 0); err != nil {
		t.Fatalf("pure GPU with zero fc: %v", err)
	}
}

func TestResourceModelFloor(t *testing.T) {
	m := PaperResourceModel()
	// GPU branch at f_g = 0.7: 193.67 + 400.96·0.49 − 558.29·0.7 ≈ 0.34,
	// below the floor of 1.0.
	got, err := m.Compute(1, 0.7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != m.MinResource {
		t.Fatalf("floored resource = %v, want %v", got, m.MinResource)
	}
}

func TestEdgeResource(t *testing.T) {
	if got := EdgeResource(10); math.Abs(got-117.6) > 1e-9 {
		t.Fatalf("EdgeResource(10) = %v, want 117.6", got)
	}
}

func TestPaperPowerModelValues(t *testing.T) {
	m := PaperPowerModel()
	// Pure CPU at 2 GHz: 18.85·2 − 3.64·4 − 20.74 = 2.4 W.
	got, err := m.MeanPowerW(2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2.4) > 1e-9 {
		t.Fatalf("P(2GHz CPU) = %v, want 2.4", got)
	}
	if m.R2 != 0.863 {
		t.Fatalf("paper power R² = %v", m.R2)
	}
	// At 1 GHz the CPU branch extrapolates negative; it must floor.
	got, err = m.MeanPowerW(1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != m.MinPowerW {
		t.Fatalf("floored power = %v, want %v", got, m.MinPowerW)
	}
}

func TestPowerModelValidation(t *testing.T) {
	m := PaperPowerModel()
	if _, err := m.MeanPowerW(2, 1, 2); !errors.Is(err, ErrUtilization) {
		t.Fatal("bad utilization must error")
	}
	if _, err := m.MeanPowerW(0, 1, 0.5); !errors.Is(err, ErrFrequency) {
		t.Fatal("zero fc with CPU share must error")
	}
}

func TestEnergyAccounting(t *testing.T) {
	m := PaperPowerModel()
	e, err := m.SegmentEnergyMJ(2.5, 100)
	if err != nil {
		t.Fatal(err)
	}
	if e != 250 {
		t.Fatalf("2.5 W over 100 ms = %v mJ, want 250", e)
	}
	if _, err := m.SegmentEnergyMJ(-1, 10); err == nil {
		t.Fatal("negative power must error")
	}
	if _, err := m.SegmentEnergyMJ(1, -10); err == nil {
		t.Fatal("negative latency must error")
	}
	base, err := m.BaseEnergyMJ(1000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(base-DefaultBasePowerW*1000) > 1e-9 {
		t.Fatalf("base energy = %v", base)
	}
	if _, err := m.BaseEnergyMJ(-1); err == nil {
		t.Fatal("negative interval must error")
	}
	th, err := m.ThermalEnergyMJ(100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(th-DefaultThermalFraction*100) > 1e-9 {
		t.Fatalf("thermal energy = %v", th)
	}
	if _, err := m.ThermalEnergyMJ(-1); err == nil {
		t.Fatal("negative energy must error")
	}
}

// Property: the resource model is a convex combination — for any valid
// clocks, c(ωc) lies between the pure-CPU and pure-GPU values.
func TestResourceConvexCombination(t *testing.T) {
	m := PaperResourceModel()
	f := func(a, b, w float64) bool {
		fc := 0.5 + math.Abs(math.Mod(a, 3))
		fg := 0.5 + math.Abs(math.Mod(b, 1.5))
		wc := math.Abs(math.Mod(w, 1))
		cpu, err1 := m.Compute(fc, fg, 1)
		gpu, err2 := m.Compute(fc, fg, 0)
		mix, err3 := m.Compute(fc, fg, wc)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		lo, hi := math.Min(cpu, gpu), math.Max(cpu, gpu)
		// The floor can lift the mix above the raw combination, so
		// allow [min(lo, floor), hi].
		return mix >= math.Min(lo, m.MinResource)-1e-9 && mix <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: power is always at least the floor and energies are
// non-negative for non-negative inputs.
func TestPowerNonNegative(t *testing.T) {
	m := PaperPowerModel()
	f := func(a, b, w float64) bool {
		fc := 0.3 + math.Abs(math.Mod(a, 3.5))
		fg := 0.3 + math.Abs(math.Mod(b, 1.5))
		wc := math.Abs(math.Mod(w, 1))
		p, err := m.MeanPowerW(fc, fg, wc)
		if err != nil {
			return false
		}
		return p >= m.MinPowerW
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
