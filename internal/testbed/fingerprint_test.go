package testbed

import (
	"bytes"
	"encoding"
	"encoding/json"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/mobility"
	"repro/internal/pipeline"
	"repro/internal/sensors"
	"repro/internal/session"
	"repro/internal/wireless"
)

// TestContentSeedPinned pins literal content seeds, recorded from the
// encoding/json implementation of the fingerprint. Every golden report
// hangs off these seeds, so a drift in the fingerprint's bytes fails
// here, by name, before it shows up as a golden diff.
func TestContentSeedPinned(t *testing.T) {
	want := []int64{
		5169565143903061357, -5794972680064695598, 3782535158941910996, 556280428935061125,
		5724820769116831288, 3717066359233799426, 4176953145385455542, 6499993516602109993,
		-139604472546551365, -4810939207877481230, 430800895123844940, -3839418288733345534,
		755669962206231855, 7746753616802060696, -4842355451029088768, 5177030648128107210,
	}
	reqs := benchRequests(t)
	if len(reqs) != len(want) {
		t.Fatalf("%d bench requests, %d pinned seeds", len(reqs), len(want))
	}
	names := make([]string, len(reqs))
	for i := range reqs {
		names[i] = "bench cell " + reqs[i].Scenario.Device.Name
	}
	th := session.DefaultThermal()
	reqs = append(reqs,
		Request{Op: OpAnalyze, Scenario: workerScenario(t),
			Fit: &FitConfig{Seed: 7, TrainRows: 2000, TestRows: 500}},
		Request{Op: OpSession, Scenario: workerScenario(t), Session: &SessionConfig{
			Frames:     120,
			Thermal:    &th,
			BatteryMAh: 3000,
			Mobility: &MobilityConfig{SpeedMps: 1.4, StepMs: 100,
				ZoneTechnology: wireless.WiFi5GHz, ZoneRadiusM: 30, Kind: mobility.HandoffHorizontal},
			Users:     20,
			FirstUser: 40,
		}})
	names = append(names, "analyze request with a fit config", "session request with mobility and thermal")
	want = append(want, -3743576210349713087, 8846917453111337758)
	for i, r := range reqs {
		got, err := r.ContentSeed(42)
		if err != nil {
			t.Fatalf("%d (%s): %v", i, names[i], err)
		}
		if got != want[i] {
			t.Errorf("%d (%s): ContentSeed(42) = %d, want %d: the fingerprint's bytes changed, which moves every seeded measurement",
				i, names[i], got, want[i])
		}
	}
}

// jsonTagName is the tag-name alphabet the fingerprint appender is held
// to; encoding/json accepts more, and falls back to the Go field name
// for some of it.
var jsonTagName = regexp.MustCompile(`^[A-Za-z0-9_]+$`)

// TestFingerprintPlanCoverage walks every type reachable from Request
// and fails on anything the fingerprint appender does not spell as
// encoding/json does, so a future field fails here instead of shifting
// seeds silently.
func TestFingerprintPlanCoverage(t *testing.T) {
	marshalers := []reflect.Type{
		reflect.TypeOf((*json.Marshaler)(nil)).Elem(),
		reflect.TypeOf((*encoding.TextMarshaler)(nil)).Elem(),
	}
	seen := map[reflect.Type]bool{}
	var walk func(t reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		if seen[typ] {
			return
		}
		seen[typ] = true
		for _, m := range marshalers {
			if typ.Implements(m) || reflect.PointerTo(typ).Implements(m) {
				t.Errorf("%s: %s implements %s", path, typ, m)
			}
		}
		switch typ.Kind() {
		case reflect.Bool, reflect.String, reflect.Float64, reflect.Interface,
			reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		case reflect.Pointer:
			walk(typ.Elem(), path)
		case reflect.Slice:
			if typ.Elem().Kind() == reflect.Uint8 {
				t.Errorf("%s: byte slice %s", path, typ)
			}
			walk(typ.Elem(), path+"[]")
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				fpath := path + "." + f.Name
				if f.Anonymous {
					t.Errorf("%s: embedded field", fpath)
				}
				if !f.IsExported() {
					continue
				}
				if tag, ok := f.Tag.Lookup("json"); ok {
					name, opts, _ := strings.Cut(tag, ",")
					if name != "" && !jsonTagName.MatchString(name) {
						t.Errorf("%s: json name %q", fpath, name)
					}
					if opts != "" && opts != "omitempty" {
						t.Errorf("%s: json tag options %q", fpath, opts)
					}
				}
				walk(f.Type, fpath)
			}
		default:
			t.Errorf("%s: unsupported kind %s (%s)", path, typ.Kind(), typ)
		}
	}
	walk(reflect.TypeOf(Request{}), "Request")
	if len(seen) < 20 {
		t.Fatalf("walked only %d types", len(seen))
	}
}

// fuzzRequest builds a request whose strings, floats and integers come
// from the fuzzer, in both omitempty and always-written fields. shape's
// bits pick nil or empty slices, the op, and the optional sub-structs.
func fuzzRequest(t *testing.T, x, y float64, s string, n int64, shape uint8) Request {
	sc := workerScenario(t)
	sc.Device.Name = s
	sc.LocalCNN.Name = s + s
	sc.FrameSizePx2 = x
	sc.Encoding.Quantization = y
	sc.SensorUpdates = int(n)
	if len(sc.Sensors.Sensors) > 0 {
		sc.Sensors.Sensors[0].Name = s
		sc.Sensors.Sensors[0].DistanceM = y
	}
	switch shape & 3 {
	case 1:
		sc.Edges = nil
	case 2:
		sc.Edges = []pipeline.EdgeAssignment{}
	case 3:
		sc.Sensors.Sensors = []sensors.Sensor{}
	}
	if shape&4 != 0 {
		sc.Sensors.Sensors = nil
	}
	if shape&8 != 0 {
		sc.Handoff = &mobility.HandoffModel{LatencyMs: x, Probability: y}
		sc.Coop = &pipeline.CoopConfig{DataSizeMB: x}
	}
	req := Request{Scenario: sc, Trials: int(n % 100), NoiseRel: y, Seed: n}
	switch shape >> 4 & 3 {
	case 1:
		req.Op = OpMeasure
	case 2:
		req.Op = OpAnalyze
		req.Fit = &FitConfig{Seed: n, TrainRows: int(n % 1000), TestRows: int(n % 100)}
	case 3:
		req.Op = OpSession
		req.Session = &SessionConfig{Frames: 10, BatteryMAh: x, BatteryVolts: y,
			FirstUser: uint64(n), SketchAlpha: y, IncludeTrace: shape&64 != 0}
		if shape&128 != 0 {
			th := session.DefaultThermal()
			th.AmbientC = x
			req.Session.Thermal = &th
			req.Session.Mobility = &MobilityConfig{SpeedMps: y, StepMs: x, EveryFrames: int(n % 7)}
		}
	}
	return req
}

// fuzzRequestSeed is one fuzzRequest input.
type fuzzRequestSeed struct {
	x, y  float64
	s     string
	n     int64
	shape uint8
}

// fuzzRequestSeeds is FuzzFingerprintJSON's seed corpus: floats at
// JSON's spelling cut-offs and the integer fast path's edges, strings
// JSON escapes, and every request shape with zero-valued omitempty
// fields.
func fuzzRequestSeeds() []fuzzRequestSeed {
	floats := []float64{
		0, 1, 600, 0.1, 1e-6, 9.99e-7, 1e21, 9.99e20, math.Copysign(0, -1),
		1 << 53, 1<<53 + 2, 1<<53 - 1, -(1 << 53), -(1<<53 + 2), -(1<<53 - 1),
		5e-324, -1.5e-300, 123456789.125, math.NaN(), math.Inf(1), math.Inf(-1),
	}
	strs := []string{"XR2", "", "<a&b>", "a\u2028b\u2029", "\x01\t\n\"\\\b\f\r\x7f", "\xff\xfeok\xc3", "\u00e9\u6f22\u5b57"}
	var seeds []fuzzRequestSeed
	for i, x := range floats {
		seeds = append(seeds, fuzzRequestSeed{x, floats[(i+1)%len(floats)], strs[i%len(strs)], int64(i*37 - 300), uint8(i * 29)})
	}
	for shape := 0; shape < 256; shape += 17 {
		seeds = append(seeds, fuzzRequestSeed{shape: uint8(shape)})
	}
	return seeds
}

// FuzzFingerprintJSON is the differential test of the fingerprint
// appender: for any request, Fingerprint must equal json.Marshal of the
// normalised request byte for byte, and fail exactly where WireSafe or
// json.Marshal fails.
func FuzzFingerprintJSON(f *testing.F) {
	for _, sd := range fuzzRequestSeeds() {
		f.Add(sd.x, sd.y, sd.s, sd.n, sd.shape)
	}
	f.Fuzz(func(t *testing.T, x, y float64, s string, n int64, shape uint8) {
		req := fuzzRequest(t, x, y, s, n, shape)
		got, gotErr := req.Fingerprint()
		norm := req
		norm.Op, norm.Seed = req.op(), 0
		want, marshalErr := json.Marshal(norm)
		wantFail := req.WireSafe() != nil || marshalErr != nil
		if (gotErr != nil) != wantFail {
			t.Fatalf("Fingerprint error %v; WireSafe %v, json.Marshal %v", gotErr, req.WireSafe(), marshalErr)
		}
		if !wantFail && got != string(want) {
			t.Fatalf("fingerprint differs from json.Marshal:\n got %s\nwant %s", got, want)
		}
		if !wantFail {
			seed, err := req.ContentSeed(n)
			if err != nil || seed != jsonContentSeed(want, n) {
				t.Fatalf("ContentSeed(%d) = %d, %v; want %d", n, seed, err, jsonContentSeed(want, n))
			}
		}
	})
}

// jsonContentSeed is ContentSeed's definition spelled over given
// fingerprint bytes, with the standard library's FNV-1a.
func jsonContentSeed(fp []byte, base int64) int64 {
	h := fnv.New64a()
	h.Write(fp)
	z := uint64(base) ^ h.Sum64()
	z += 0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// TestFingerprintFloatSpellings pins the float spellings at json's
// format cut-offs and the integer fast path's edges.
func TestFingerprintFloatSpellings(t *testing.T) {
	for _, f := range []float64{
		1e-6, 9.99e-7, 1e21, 9.99e20, math.Copysign(0, -1), 5e-324,
		1<<53 - 1, 1 << 53, -(1<<53 - 1), 0.5, -2, 1e20, 1e-7,
	} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendJSONFloat(nil, f)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%g: appendJSONFloat = %s, %v; json.Marshal = %s", f, got, err, want)
		}
	}
	// Decimals with up to eleven places, and arbitrary bit patterns.
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200000; i++ {
		var f float64
		if i%4 == 3 {
			f = math.Float64frombits(rng.Uint64())
		} else {
			f = float64(rng.Int63n(1<<uint(1+rng.Intn(55)))) / math.Pow10(rng.Intn(12))
			if i%2 == 1 {
				f = -f
			}
		}
		want, err := json.Marshal(f)
		if err != nil {
			continue
		}
		if got, err := appendJSONFloat(nil, f); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%b: appendJSONFloat = %s, %v; json.Marshal = %s", f, got, err, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := appendJSONFloat(nil, f); err == nil {
			t.Errorf("%g: no error", f)
		}
	}
}
