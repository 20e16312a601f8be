package cnn

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestCatalogCompleteness(t *testing.T) {
	cat := Catalog()
	if len(cat) != 11 {
		t.Fatalf("catalog size = %d, want 11 (Table II)", len(cat))
	}
	names := map[string]bool{}
	for _, m := range cat {
		if m.Name == "" {
			t.Fatal("empty model name")
		}
		if m.SizeMB <= 0 {
			t.Fatalf("%s: non-positive size", m.Name)
		}
		if m.DepthScale <= 0 {
			t.Fatalf("%s: non-positive depth scale", m.Name)
		}
		if names[m.Name] {
			t.Fatalf("duplicate model %s", m.Name)
		}
		names[m.Name] = true
	}
}

func TestCatalogKnownEntries(t *testing.T) {
	y3, err := ByName("YOLOv3")
	if err != nil {
		t.Fatal(err)
	}
	if y3.Depth != 106 || y3.SizeMB != 210 || !y3.EdgeClass {
		t.Fatalf("YOLOv3 = %+v", y3)
	}
	y7, err := ByName("YOLOv7")
	if err != nil {
		t.Fatal(err)
	}
	if y7.DepthScale != 1.5 || y7.SizeMB != 142.8 {
		t.Fatalf("YOLOv7 = %+v", y7)
	}
	nas, err := ByName("NasNet_Float")
	if err != nil {
		t.Fatal(err)
	}
	if nas.Depth != 663 {
		t.Fatalf("NasNet depth = %d, want 663", nas.Depth)
	}
	if _, err := ByName("ResNet50"); !errors.Is(err, ErrUnknownModel) {
		t.Fatal("unknown model must error")
	}
}

// TestByNameDoesNotAllocate pins ByName to the package table: a lookup
// copies out one entry, never the whole catalog.
func TestByNameDoesNotAllocate(t *testing.T) {
	var sink Model
	allocs := testing.AllocsPerRun(100, func() {
		m, err := ByName("YOLOv3")
		if err != nil {
			t.Fatal(err)
		}
		sink = m
	})
	if allocs != 0 {
		t.Fatalf("ByName made %.1f allocations, want 0", allocs)
	}
	_ = sink
}

// TestCatalogEditDoesNotReachByName: the table that ByName reads is not
// the one Catalog hands out.
func TestCatalogEditDoesNotReachByName(t *testing.T) {
	cat := Catalog()
	for i := range cat {
		cat[i].Depth = -1
		cat[i].SizeMB = -1
	}
	m, err := ByName("YOLOv3")
	if err != nil {
		t.Fatal(err)
	}
	if m.Depth != 106 || m.SizeMB != 210 {
		t.Fatalf("ByName after editing a Catalog copy = depth %d, %v MB", m.Depth, m.SizeMB)
	}
}

func TestDeviceEdgeSplit(t *testing.T) {
	dev := DeviceModels()
	edge := EdgeModels()
	if len(dev)+len(edge) != len(Catalog()) {
		t.Fatal("split must partition the catalog")
	}
	if len(edge) != 2 {
		t.Fatalf("edge models = %d, want 2 (YOLOv3, YOLOv7)", len(edge))
	}
	for _, m := range dev {
		if m.EdgeClass {
			t.Fatalf("%s misclassified as device model", m.Name)
		}
	}
}

func TestQuantizedVariantsSmaller(t *testing.T) {
	pairs := [][2]string{
		{"MobileNetv1_240_Float", "MobileNetv1_240_Quant"},
		{"MobileNetv2_300_Float", "MobileNetv2_300_Quant"},
		{"MobileNetv2_640_Float", "MobileNetv2_640_Quant"},
		{"EfficientNet_Float", "EfficientNet_Quant"},
	}
	for _, p := range pairs {
		f, err := ByName(p[0])
		if err != nil {
			t.Fatal(err)
		}
		q, err := ByName(p[1])
		if err != nil {
			t.Fatal(err)
		}
		if q.SizeMB >= f.SizeMB {
			t.Fatalf("%s (%v MB) should be smaller than %s (%v MB)",
				q.Name, q.SizeMB, f.Name, f.SizeMB)
		}
		if !q.Quantized || f.Quantized {
			t.Fatalf("quantization flags wrong for pair %v", p)
		}
	}
}

func TestPaperComplexityValues(t *testing.T) {
	cm := PaperComplexityModel()
	// MobileNetv1_240 Float: 2.45 + 0.0025·31 + 0.03·16.9 + 0.0029·1.
	got, err := cm.Complexity(31, 16.9, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := 2.45 + 0.0025*31 + 0.03*16.9 + 0.0029*1
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("C_CNN = %v, want %v", got, want)
	}
	if cm.R2 != 0.844 {
		t.Fatalf("paper R² = %v, want 0.844", cm.R2)
	}
}

func TestComplexityValidation(t *testing.T) {
	cm := PaperComplexityModel()
	if _, err := cm.Complexity(-1, 10, 1); !errors.Is(err, ErrParams) {
		t.Fatal("negative depth must error")
	}
	if _, err := cm.Complexity(10, 0, 1); !errors.Is(err, ErrParams) {
		t.Fatal("zero size must error")
	}
	if _, err := cm.Complexity(10, 10, 0); !errors.Is(err, ErrParams) {
		t.Fatal("zero depth scale must error")
	}
}

func TestComplexityOfCatalog(t *testing.T) {
	cm := PaperComplexityModel()
	for _, m := range Catalog() {
		c, err := cm.ComplexityOf(m)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if c <= 0 {
			t.Fatalf("%s: non-positive complexity %v", m.Name, c)
		}
	}
	// The big edge models must be more complex than the lightest
	// on-device model.
	light, _ := ByName("MobileNetv1_240_Quant")
	heavy, _ := ByName("YOLOv3")
	cl, _ := cm.ComplexityOf(light)
	ch, _ := cm.ComplexityOf(heavy)
	if ch <= cl {
		t.Fatalf("YOLOv3 complexity %v must exceed MobileNet quant %v", ch, cl)
	}
}

// Property: complexity is monotonically increasing in each parameter.
func TestComplexityMonotonic(t *testing.T) {
	cm := PaperComplexityModel()
	f := func(d int, s, sc float64) bool {
		depth := d % 1000
		if depth < 0 {
			depth = -depth
		}
		size := 1 + math.Abs(math.Mod(s, 300))
		scale := 0.5 + math.Abs(math.Mod(sc, 3))
		base, err := cm.Complexity(depth, size, scale)
		if err != nil {
			return false
		}
		d2, err := cm.Complexity(depth+10, size, scale)
		if err != nil {
			return false
		}
		s2, err := cm.Complexity(depth, size+10, scale)
		if err != nil {
			return false
		}
		sc2, err := cm.Complexity(depth, size, scale+1)
		if err != nil {
			return false
		}
		return d2 > base && s2 > base && sc2 > base
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
