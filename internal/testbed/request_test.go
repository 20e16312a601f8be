package testbed

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/energy"
	"repro/internal/pipeline"
)

// randomRequest draws a request from small value sets, so a few hundred
// draws hold many pairs with identical content built from distinct
// pointers: measure requests with Op "" and "measure", analyze requests
// with and without a FitConfig, and session requests.
func randomRequest(t *testing.T, rng *rand.Rand) Request {
	t.Helper()
	devs := device.Catalog()
	opts := []pipeline.Option{pipeline.WithFrameSize([]float64{300, 500}[rng.Intn(2)])}
	if rng.Intn(2) == 1 {
		opts = append(opts, pipeline.WithMode(pipeline.ModeRemote))
	}
	if rng.Intn(2) == 1 {
		opts = append(opts, pipeline.WithCPUFreq(1.5))
	}
	sc, err := pipeline.NewScenario(devs[rng.Intn(2)], opts...)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Scenario: sc, Seed: int64(rng.Intn(2))}
	switch rng.Intn(4) {
	case 0, 1:
		req.Op = []RequestOp{"", OpMeasure}[rng.Intn(2)]
		req.Trials = 1 + rng.Intn(2)
		req.NoiseRel = []float64{0, DefaultNoiseRel}[rng.Intn(2)]
	case 2:
		req.Op = OpAnalyze
		if rng.Intn(2) == 1 {
			req.Fit = &FitConfig{Seed: int64(rng.Intn(2)), TrainRows: 2000, TestRows: 500}
		}
	case 3:
		req.Op = OpSession
		req.Session = &SessionConfig{Frames: 10 + rng.Intn(2), Users: rng.Intn(2)}
	}
	return req
}

// TestAppendKeyMatchesFingerprint is the cache-key property test: over
// randomly generated requests, two binary memory keys are equal exactly
// when the requests' (Fingerprint, Seed) are equal.
func TestAppendKeyMatchesFingerprint(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	type keyed struct {
		key  []byte
		fp   string
		seed int64
	}
	var reqs []keyed
	for i := 0; i < 300; i++ {
		r := randomRequest(t, rng)
		key, err := r.AppendKey(nil)
		if err != nil {
			t.Fatalf("request %d: AppendKey: %v", i, err)
		}
		fp, err := r.Fingerprint()
		if err != nil {
			t.Fatalf("request %d: Fingerprint: %v", i, err)
		}
		reqs = append(reqs, keyed{key, fp, r.Seed})
	}
	equal, distinct := 0, 0
	for i := range reqs {
		for j := i + 1; j < len(reqs); j++ {
			a, b := reqs[i], reqs[j]
			sameKey := bytes.Equal(a.key, b.key)
			sameContent := a.fp == b.fp && a.seed == b.seed
			if sameKey != sameContent {
				t.Fatalf("requests %d and %d: equal keys %v, equal (fingerprint, seed) %v", i, j, sameKey, sameContent)
			}
			if sameKey {
				equal++
			} else {
				distinct++
			}
		}
	}
	if equal < 100 || distinct == 0 {
		t.Fatalf("generator too narrow or too wide: %d equal pairs, %d distinct", equal, distinct)
	}
}

// copyKey is AppendKey's reference spelling: normalise Op on a copy of
// the request, then encode the whole copy with the key encoder.
func copyKey(r Request) ([]byte, error) {
	if err := r.WireSafe(); err != nil {
		return nil, err
	}
	c := r
	c.Op = r.op()
	return binEncoder{finite: true}.append(nil, planFor(requestType), reflect.ValueOf(&c).Elem())
}

// TestAppendKeyMatchesCopyEncoding holds AppendKey, which reads the
// request in place, to the bytes of encoding a normalised copy, over
// FuzzFingerprintJSON's seed requests and random draws of every op.
func TestAppendKeyMatchesCopyEncoding(t *testing.T) {
	var reqs []Request
	for _, sd := range fuzzRequestSeeds() {
		reqs = append(reqs, fuzzRequest(t, sd.x, sd.y, sd.s, sd.n, sd.shape))
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		reqs = append(reqs, randomRequest(t, rng))
	}
	keyed := 0
	for i := range reqs {
		want, wantErr := copyKey(reqs[i])
		got, err := reqs[i].AppendKey([]byte("prefix"))
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("request %d: AppendKey error %v, copy-encode error %v", i, err, wantErr)
		}
		if err != nil {
			if string(got) != "prefix" {
				t.Fatalf("request %d: failed AppendKey changed dst to %q", i, got)
			}
			continue
		}
		if !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("request %d: AppendKey differs from the copy-encoded key", i)
		}
		keyed++
	}
	if keyed < len(reqs)/2 {
		t.Fatalf("only %d of %d requests keyed", keyed, len(reqs))
	}
}

// TestAppendKeyAllocs pins a key appended into a buffer with room for it
// to no allocation: AppendKey reads the request where it lies.
func TestAppendKeyAllocs(t *testing.T) {
	req := workerRequest(t, 5)
	buf, err := req.AppendKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if buf, err = req.AppendKey(buf[:0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendKey made %.1f allocations, want 0", allocs)
	}
}

// TestAppendKeyFailsWhereFingerprintFails pins that a request with no
// fingerprint has no key either, so a cache keeps it private.
func TestAppendKeyFailsWhereFingerprintFails(t *testing.T) {
	cases := map[string]func(*Request){
		"path-loss model":   func(r *Request) { r.Scenario.EdgeLink.Loss = lossStub{} },
		"NaN noise":         func(r *Request) { r.NoiseRel = math.NaN() },
		"infinite scenario": func(r *Request) { r.Scenario.ResultSizeMB = math.Inf(1) },
		"nil scenario":      func(r *Request) { r.Scenario = nil },
		"trials over cap":   func(r *Request) { r.Trials = MaxTrials + 1 },
	}
	for name, mutate := range cases {
		req := workerRequest(t, 5)
		mutate(&req)
		if _, err := req.Fingerprint(); err == nil {
			t.Errorf("%s: Fingerprint accepted it", name)
		}
		if _, err := req.AppendKey(nil); !errors.Is(err, ErrRequest) {
			t.Errorf("%s: AppendKey error %v, want ErrRequest", name, err)
		}
	}
}

// TestWorkCaps pins the per-request work caps with their exact error
// text at both places a wire request is checked: WireSafe on the
// dispatching side, and the executor on the node that receives it.
func TestWorkCaps(t *testing.T) {
	atCap := workerRequest(t, MaxTrials)
	atCap.Fit = &FitConfig{TrainRows: MaxTrainRows, TestRows: MaxTestRows}
	if err := atCap.WireSafe(); err != nil {
		t.Fatalf("request at the caps rejected: %v", err)
	}
	atCap.Op, atCap.Fit = OpSession, nil
	atCap.Session = &SessionConfig{Users: 10000, Frames: MaxSessionFrames / 10000}
	if err := atCap.WireSafe(); err != nil {
		t.Fatalf("session at the cap rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Request)
		want   string
	}{
		{"trials", func(r *Request) { r.Trials = 10001 },
			"testbed: invalid request: trials 10001 exceeds the cap of 10000"},
		{"train rows", func(r *Request) {
			r.Op = OpAnalyze
			r.Fit = &FitConfig{TrainRows: 1194651, TestRows: 500}
		}, "testbed: invalid request: fit train rows 1194651 exceeds the cap of 1194650"},
		{"test rows", func(r *Request) {
			r.Op = OpAnalyze
			r.Fit = &FitConfig{TrainRows: 2000, TestRows: 360831}
		}, "testbed: invalid request: fit test rows 360831 exceeds the cap of 360830"},
		{"session frames", func(r *Request) {
			r.Op = OpSession
			r.Session = &SessionConfig{Users: 10000, Frames: 20001}
		}, "testbed: invalid request: session users × frames 10000 × 20001 exceeds the cap of 200000000"},
		{"session frames, one user", func(r *Request) {
			r.Op = OpSession
			r.Session = &SessionConfig{Frames: 200000001}
		}, "testbed: invalid request: session users × frames 1 × 200000001 exceeds the cap of 200000000"},
	}
	for _, tc := range cases {
		req := workerRequest(t, 5)
		tc.mutate(&req)
		if err := req.WireSafe(); err == nil || err.Error() != tc.want {
			t.Errorf("%s: WireSafe error %v, want %q", tc.name, err, tc.want)
		}
		items := NewExecutor(nil).DoBatch(context.Background(), []Request{req})
		if items[0].Err != tc.want {
			t.Errorf("%s: executor item error %q, want %q", tc.name, items[0].Err, tc.want)
		}
	}
}

// TestExecutorRefitOutsideLock pins that a refit runs outside the
// executor's lock: while one config's fit is held mid-flight, analyses
// of another config — fitted already or not — complete, and every
// config is still fitted exactly once, however its callers interleave.
func TestExecutorRefitOutsideLock(t *testing.T) {
	slow := FitConfig{Seed: 1, TrainRows: 2000, TestRows: 500}
	fast := FitConfig{Seed: 2, TrainRows: 2000, TestRows: 500}
	started, release := make(chan struct{}), make(chan struct{})
	var fits sync.Map // FitConfig → *atomic.Int64
	e := NewExecutor(nil)
	e.fit = func(fc FitConfig) (energy.Models, error) {
		n, _ := fits.LoadOrStore(fc, new(atomic.Int64))
		n.(*atomic.Int64).Add(1)
		if fc == slow {
			close(started)
			<-release
		}
		return energy.PaperModels(), nil
	}
	analyze := func(fc FitConfig) error {
		req := workerRequest(t, 5)
		req.Op, req.Fit = OpAnalyze, &fc
		_, err := e.Do(context.Background(), req)
		return err
	}
	if err := analyze(fast); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs <- analyze(slow)
	}()
	<-started

	// The slow fit is parked inside its once. Neither the fitted config
	// nor a fresh one may queue behind it.
	done := make(chan error, 1)
	go func() {
		if err := analyze(fast); err != nil {
			done <- err
			return
		}
		done <- analyze(FitConfig{Seed: 3, TrainRows: 2000, TestRows: 500})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatal("analyses of other configs queued behind an unrelated refit")
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		errs <- analyze(slow)
	}()
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	fits.Range(func(k, v any) bool {
		if n := v.(*atomic.Int64).Load(); n != 1 {
			t.Errorf("config %+v fitted %d times, want 1", k, n)
		}
		return true
	})
}
