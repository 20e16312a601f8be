package testbed

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/device"
	"repro/internal/energy"
	"repro/internal/latency"
	"repro/internal/pipeline"
	"repro/internal/sensors"
)

// workerScenario builds a representative remote-mode scenario with a
// sensor array — exercising nested structs, slices, and pointers on the
// wire.
func workerScenario(t testing.TB) *pipeline.Scenario {
	t.Helper()
	dev, err := device.ByName("XR2")
	if err != nil {
		t.Fatal(err)
	}
	s1, err := sensors.NewSensor("imu", 200, 5)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := pipeline.NewScenario(dev,
		pipeline.WithMode(pipeline.ModeRemote),
		pipeline.WithFrameSize(600),
		pipeline.WithSensors(sensors.NewArray(s1), 2),
	)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func workerRequest(t testing.TB, trials int) Request {
	t.Helper()
	req := Request{Scenario: workerScenario(t), Trials: trials, NoiseRel: DefaultNoiseRel}
	seed, err := req.ContentSeed(7)
	if err != nil {
		t.Fatal(err)
	}
	req.Seed = seed
	return req
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := WireBatch{ID: 3, Reqs: []Request{workerRequest(t, 5), workerRequest(t, 2)}}
	if err := WriteBinaryFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	var out WireBatch
	if err := ReadBinaryFrame(&buf, &out); err != nil {
		t.Fatal(err)
	}
	if out.ID != 3 || len(out.Reqs) != 2 || out.Reqs[0].Trials != 5 || out.Reqs[0].Seed != in.Reqs[0].Seed {
		t.Fatalf("round trip lost fields: %+v", out)
	}
	if out.Reqs[0].Scenario.Device.Name != "XR2" || len(out.Reqs[0].Scenario.Sensors.Sensors) != 1 {
		t.Fatalf("scenario lost on the wire: %+v", out.Reqs[0].Scenario)
	}
}

// TestRawFrameRoundTripSizes sends payloads on both sides of
// maxExactFrameRead through a reader that returns short reads, so a
// frame past the cap is read across several buffer growths.
func TestRawFrameRoundTripSizes(t *testing.T) {
	for _, size := range []int{0, 1000, maxExactFrameRead, maxExactFrameRead + 1, 5*maxExactFrameRead + 7} {
		in := make([]byte, 4+size)
		for i := range in[4:] {
			in[4+i] = byte(i * 7)
		}
		want := append([]byte(nil), in[4:]...)
		var buf bytes.Buffer
		if err := WriteRawFrame(&buf, in); err != nil {
			t.Fatal(err)
		}
		out, err := ReadRawFrame(iotest.HalfReader(&buf))
		if err != nil {
			t.Fatalf("%d-byte frame: %v", size, err)
		}
		if !bytes.Equal(out, want) {
			t.Fatalf("%d-byte frame came back as %d different bytes", size, len(out))
		}
	}
}

func TestReadFrameRejectsOversized(t *testing.T) {
	var head [4]byte
	binary.BigEndian.PutUint32(head[:], MaxFrameBytes+1)
	err := ReadFrame(bytes.NewReader(head[:]), &WireBatch{})
	if !errors.Is(err, ErrFrame) {
		t.Fatalf("oversized frame error = %v", err)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, WireBatch{ID: 1}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-2]
	err := ReadFrame(bytes.NewReader(trunc), &WireBatch{})
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated frame error = %v", err)
	}
}

// TestRequestJSONRoundTripMeasuresIdentically pins the wire determinism
// contract: a request decoded from its own JSON encoding measures bit
// for bit what the original measures — Go's JSON float encoding is
// shortest-round-trip, so nothing is lost crossing a worker boundary.
func TestRequestJSONRoundTripMeasuresIdentically(t *testing.T) {
	req := workerRequest(t, 6)
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var back Request
	if err := json.Unmarshal(payload, &back); err != nil {
		t.Fatal(err)
	}
	bench := NewBench(0)
	want, err := bench.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := bench.Do(back)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("decoded request measures differently:\noriginal %+v\ndecoded  %+v", want, got)
	}
}

// TestServeLoop drives the worker protocol end to end in-process: the
// worker leads with its JSON handshake, then answers binary batches —
// good requests answer with measurements, a bad request answers with a
// per-item error while the rest of its batch (and the loop) keeps
// serving, and EOF ends the loop cleanly.
func TestServeLoop(t *testing.T) {
	good := workerRequest(t, 4)
	bad := good
	bad.Trials = 0
	want, err := NewBench(0).Do(good)
	if err != nil {
		t.Fatal(err)
	}

	var in bytes.Buffer
	if err := WriteBinaryFrame(&in, WireBatch{ID: 7, Reqs: []Request{good, bad, good}}); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinaryFrame(&in, WireBatch{ID: 10, Reqs: []Request{good}}); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := Serve(&in, &out); err != nil {
		t.Fatal(err)
	}

	hello, err := ReadHello(&out)
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	if hello != Hello() {
		t.Fatalf("hello = %+v", hello)
	}
	var res WireBatchResult
	if err := ReadBinaryFrame(&out, &res); err != nil {
		t.Fatalf("batch result: %v", err)
	}
	if res.ID != 7 || len(res.Items) != 3 {
		t.Fatalf("batch result = %+v", res)
	}
	for i, item := range res.Items {
		if i == 1 {
			if !strings.Contains(item.Err, "trial count") {
				t.Fatalf("bad request item = %+v", item)
			}
			continue
		}
		if item.Err != "" || item.M != want {
			t.Fatalf("item %d = %+v, want %+v", i, item, want)
		}
	}
	var res2 WireBatchResult
	if err := ReadBinaryFrame(&out, &res2); err != nil {
		t.Fatalf("second batch result: %v", err)
	}
	if res2.ID != 10 || len(res2.Items) != 1 || res2.Items[0].M != want {
		t.Fatalf("second batch result = %+v", res2)
	}
	if err := ReadBinaryFrame(&out, &WireBatchResult{}); !errors.Is(err, io.EOF) {
		t.Fatalf("extra response after EOF: %v", err)
	}
}

// TestServeLoopRejectsUnknownCodec pins the failure path for a
// dispatcher that does not speak the binary batch codec: the worker
// writes its handshake, answers nothing after it, and the serve loop
// returns a frame error. The inputs are what a protocol-2 dispatcher
// sent after the handshake: a JSON start frame naming a codec, and a
// JSON-encoded batch.
func TestServeLoopRejectsUnknownCodec(t *testing.T) {
	good := workerRequest(t, 4)
	cases := []struct {
		name  string
		frame any
	}{
		{"unknown", map[string]string{"codec": "protobuf"}},
		{"json-batch", WireBatch{ID: 7, Reqs: []Request{good}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var in, out bytes.Buffer
			if err := WriteFrame(&in, tc.frame); err != nil {
				t.Fatal(err)
			}
			err := NewExecutor(nil).ServeFrames(&in, &out)
			if !errors.Is(err, ErrFrame) {
				t.Fatalf("serve error = %v, want ErrFrame", err)
			}
			if _, err := ReadHello(&out); err != nil {
				t.Fatal(err)
			}
			if out.Len() != 0 {
				t.Fatalf("worker answered a frame it cannot decode: % x", out.Bytes())
			}
		})
	}
}

func TestFingerprintDistinguishesContent(t *testing.T) {
	base := workerRequest(t, 5)
	fp := func(r Request) string {
		t.Helper()
		s, err := r.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	same := base
	same.Seed = 999 // seed is excluded from the fingerprint
	if fp(base) != fp(same) {
		t.Fatal("seed must not affect the fingerprint")
	}
	variants := []func(*Request){
		func(r *Request) { r.Trials = 6 },
		func(r *Request) { r.NoiseRel = 0.5 },
		func(r *Request) { r.Op = OpAnalyze },
		func(r *Request) { r.Scenario.FrameSizePx2 = 601 },
	}
	for i, mutate := range variants {
		v := base
		sc := *base.Scenario
		v.Scenario = &sc
		mutate(&v)
		if fp(v) == fp(base) {
			t.Fatalf("variant %d has the same fingerprint", i)
		}
	}
	if s1, s2 := mustSeed(t, base, 1), mustSeed(t, base, 2); s1 == s2 {
		t.Fatal("base seed must perturb the content seed")
	}
}

func mustSeed(t *testing.T, r Request, base int64) int64 {
	t.Helper()
	s, err := r.ContentSeed(base)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestWireSafeRejectsPathLoss(t *testing.T) {
	req := workerRequest(t, 3)
	if err := req.WireSafe(); err != nil {
		t.Fatalf("plain scenario must be wire-safe: %v", err)
	}
	req.Scenario.EdgeLink.Loss = lossStub{}
	if err := req.WireSafe(); !errors.Is(err, ErrRequest) {
		t.Fatalf("path-loss scenario error = %v", err)
	}
}

type lossStub struct{}

func (lossStub) ThroughputFactor(float64) float64 { return 1 }

// TestExecutorAnalyzePaper checks the analyze op against the paper
// coefficient models evaluated directly.
func TestExecutorAnalyzePaper(t *testing.T) {
	sc := workerScenario(t)
	m, err := NewExecutor(nil).Do(context.Background(), Request{Op: OpAnalyze, Scenario: sc})
	if err != nil {
		t.Fatal(err)
	}
	eb, lb, err := energy.PaperModels().FrameEnergy(sc)
	if err != nil {
		t.Fatal(err)
	}
	if m.LatencyMs != lb.Total || m.EnergyMJ != eb.Total || m.Latency != lb || m.Energy != eb {
		t.Fatalf("analyze diverges from direct paper-model evaluation: %+v", m)
	}
}

// TestExecutorAnalyzeFitted checks that a FitConfig reconstructs the
// exact re-fitted bundle: the executor's analysis equals evaluating
// models refit from the same config in this process.
func TestExecutorAnalyzeFitted(t *testing.T) {
	sc := workerScenario(t)
	fc := FitConfig{Seed: 11, TrainRows: 2000, TestRows: 500}

	fitted, err := NewBench(fc.Seed).FitModels(fc.TrainRows, fc.TestRows)
	if err != nil {
		t.Fatal(err)
	}
	lm := latency.Models{Resource: fitted.Resource, Encoder: fitted.Encoder, Complexity: fitted.Complexity}
	eb, lb, err := (energy.Models{Latency: lm, Power: fitted.Power}).FrameEnergy(sc)
	if err != nil {
		t.Fatal(err)
	}

	ex := NewExecutor(nil)
	for i := 0; i < 2; i++ { // second round exercises the memoized fit
		m, err := ex.Do(context.Background(), Request{Op: OpAnalyze, Scenario: sc, Fit: &fc})
		if err != nil {
			t.Fatal(err)
		}
		if m.LatencyMs != lb.Total || m.EnergyMJ != eb.Total {
			t.Fatalf("round %d: fitted analyze diverges from direct refit", i)
		}
	}
}

// TestBenchDoMatchesMeasureFramesSeeded pins the request path against
// the seeded measurement primitive it generalizes.
func TestBenchDoMatchesMeasureFramesSeeded(t *testing.T) {
	sc := workerScenario(t)
	bench := NewBench(3)
	want, err := bench.MeasureFramesSeeded(sc, 7, 12345)
	if err != nil {
		t.Fatal(err)
	}
	got, err := bench.Do(Request{Scenario: sc, Trials: 7, Seed: 12345, NoiseRel: bench.NoiseRel})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("Do diverges from MeasureFramesSeeded:\n%+v\n%+v", got, want)
	}
}
