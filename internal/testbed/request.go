package testbed

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"sync"

	"repro/internal/energy"
	"repro/internal/latency"
	"repro/internal/pipeline"
	"repro/internal/stats"
)

// RequestOp selects what an execution backend does with a Request.
type RequestOp string

const (
	// OpMeasure samples the bench's hidden physics with monitor noise —
	// the ground-truth measurement of the paper's controlled trials.
	OpMeasure RequestOp = "measure"
	// OpAnalyze evaluates the analytical models (paper coefficients or a
	// re-fitted bundle identified by FitConfig) on the scenario,
	// noise-free.
	OpAnalyze RequestOp = "analyze"
)

// ErrRequest indicates an invalid or unserializable request.
var ErrRequest = errors.New("testbed: invalid request")

// FitConfig identifies a re-fitted model bundle by the inputs that fully
// determine it: fitting is a pure function of the bench seed and the
// dataset sizes, so any process can reconstruct the exact same models
// from these three numbers.
type FitConfig struct {
	// Seed is the bench seed the datasets are generated from.
	Seed int64 `json:"seed"`
	// TrainRows and TestRows are the Section VII dataset sizes.
	TrainRows int `json:"train_rows"`
	TestRows  int `json:"test_rows"`
}

// Request is one serializable unit of backend work: everything a worker —
// in this process or a subprocess — needs to reproduce the observation
// bit for bit. A measure request depends only on (Scenario, Trials, Seed,
// NoiseRel); an analyze request only on (Scenario, Fit). Neither depends
// on process state, which is what lets sweep backends dispatch requests
// anywhere and lets a cache memoize them by content.
type Request struct {
	// Op selects the work kind; empty means OpMeasure.
	Op RequestOp `json:"op,omitempty"`
	// Scenario is the operating configuration under test.
	Scenario *pipeline.Scenario `json:"scenario"`
	// Trials is the measurement-averaging count (measure only).
	Trials int `json:"trials,omitempty"`
	// Seed is the monitor-noise seed (measure only).
	Seed int64 `json:"seed,omitempty"`
	// NoiseRel is the relative monitor noise (measure only). It is
	// authoritative: 0 means a noise-free monitor, never "the executing
	// bench's default" — a fallback would resolve differently in a
	// worker subprocess than in the caller's bench and break the
	// byte-identical-across-backends contract.
	NoiseRel float64 `json:"noise_rel,omitempty"`
	// Fit identifies the re-fitted model bundle for analyze and session
	// requests; nil means the paper's published coefficients.
	Fit *FitConfig `json:"fit,omitempty"`
	// Session describes the session workload (session only); the
	// scenario still rides in Scenario and Seed doubles as the base
	// session seed, content-derived exactly like measurement seeds.
	Session *SessionConfig `json:"session,omitempty"`
}

func (r Request) op() RequestOp {
	if r.Op == "" {
		return OpMeasure
	}
	return r.Op
}

// Fingerprint returns the request's canonical content key: the JSON
// encoding of every field except Seed (struct-order keys, shortest
// round-trip floats, no maps — so the bytes are deterministic). The
// bytes are exactly encoding/json's, but a walker over the request's
// cached codec plan spells them (appendJSON), and the differential
// fuzz target FuzzFingerprintJSON holds the two to the same bytes.
// Two requests with equal fingerprints describe the same work on the
// same inputs; the persistent cache keys on (Fingerprint, Seed), and the
// in-memory cache on AppendKey, its binary twin. Requests that
// are not wire-safe have no fingerprint: a process-local path-loss
// model's behaviour is not captured by its JSON encoding, so two
// distinct models could otherwise collide on one key and a cache would
// serve the wrong measurement. Such requests execute uncached, on
// in-process backends only.
func (r Request) Fingerprint() (string, error) {
	scratch := encodeBufs.Get().(*[]byte)
	b, err := r.appendFingerprint((*scratch)[:0])
	fp := string(b)
	releaseEncodeBuf(scratch, b)
	return fp, err
}

// appendFingerprint appends the fingerprint's bytes to dst.
func (r Request) appendFingerprint(dst []byte) ([]byte, error) {
	if err := r.WireSafe(); err != nil {
		return nil, err
	}
	c := r
	c.Op = r.op()
	c.Seed = 0
	b, err := appendJSON(dst, planFor(requestType), reflect.ValueOf(&c).Elem())
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRequest, err)
	}
	return b, nil
}

// AppendKey appends the request's memory-cache key to dst: the compact
// binary encoding of every field, Seed included, with Op normalised so
// "" and OpMeasure share a key. It is the binary twin of
// (Fingerprint, Seed), walking the same codec plan without formatting
// a float or quoting a string. It reads the request in place — Op, the
// plan's first field, is written normalised and the walk covers the
// rest — so a key costs no allocation beyond growing dst. It fails
// exactly where Fingerprint does — requests that are not wire-safe, and
// non-finite floats, which JSON cannot encode — leaving dst as it was,
// and equal keys imply equal (Fingerprint, Seed). The converse holds
// for every value JSON spells uniquely; the rare spellings JSON merges
// (-0 in an omitempty field, invalid UTF-8) get distinct keys, which
// costs a cache a duplicate measurement, never a wrong one.
func (r *Request) AppendKey(dst []byte) ([]byte, error) {
	if err := r.WireSafe(); err != nil {
		return dst, err
	}
	op := r.op()
	key := binary.AppendUvarint(dst, uint64(len(op)))
	key = append(key, op...)
	rv := reflect.ValueOf(r).Elem()
	enc := binEncoder{finite: true}
	var err error
	for _, f := range planFor(requestType).fields[1:] {
		if key, err = enc.append(key, f.plan, rv.Field(f.index)); err != nil {
			return dst, fmt.Errorf("%w: %v", ErrRequest, err)
		}
	}
	return key, nil
}

// ContentSeed derives the request's deterministic monitor-noise seed from
// a base seed and the request's own content: FNV-1a over the fingerprint,
// mixed with base through a SplitMix64 finalizer. The derivation depends
// on nothing but (base, content), so the same grid cell requested by two
// different experiments — or two different backends — draws the same
// noise stream and yields the same observation, making cross-experiment
// memoization sound. The fingerprint is spelled into a pooled buffer and
// hashed in place, so a seed costs no allocation.
func (r Request) ContentSeed(base int64) (int64, error) {
	scratch := encodeBufs.Get().(*[]byte)
	fp, err := r.appendFingerprint((*scratch)[:0])
	h := uint64(14695981039346656037) // FNV-1a 64-bit offset basis
	for _, c := range fp {
		h ^= uint64(c)
		h *= 1099511628211 // FNV-1a 64-bit prime
	}
	releaseEncodeBuf(scratch, fp)
	if err != nil {
		return 0, err
	}
	z := uint64(base) ^ h
	z += 0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z), nil
}

// WireSafe reports whether the request survives a JSON round trip to a
// worker subprocess. Path-loss models are Go interfaces and therefore
// process-local; scenarios carrying one must run on an in-process
// backend.
func (r Request) WireSafe() error {
	if r.Scenario == nil {
		return fmt.Errorf("%w: nil scenario", ErrRequest)
	}
	if r.Scenario.EdgeLink.Loss != nil {
		return fmt.Errorf("%w: edge-link path-loss model is process-local and cannot cross a worker boundary", ErrRequest)
	}
	if r.Scenario.Coop != nil && r.Scenario.Coop.Link.Loss != nil {
		return fmt.Errorf("%w: cooperation-link path-loss model is process-local and cannot cross a worker boundary", ErrRequest)
	}
	if err := r.checkWork(); err != nil {
		return err
	}
	if r.op() == OpSession {
		if err := r.Session.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// checkWork enforces the work caps (MaxTrials, MaxTrainRows,
// MaxTestRows) on a request.
func (r Request) checkWork() error {
	if err := r.checkTrials(); err != nil {
		return err
	}
	if r.Fit != nil {
		return r.Fit.checkWork()
	}
	return nil
}

// checkTrials enforces the trial cap (MaxTrials).
func (r Request) checkTrials() error {
	if r.Trials > MaxTrials {
		return fmt.Errorf("%w: trials %d exceeds the cap of %d", ErrRequest, r.Trials, MaxTrials)
	}
	return nil
}

// checkWork enforces the dataset-size caps on a fit config.
func (fc FitConfig) checkWork() error {
	if fc.TrainRows > MaxTrainRows {
		return fmt.Errorf("%w: fit train rows %d exceeds the cap of %d", ErrRequest, fc.TrainRows, MaxTrainRows)
	}
	if fc.TestRows > MaxTestRows {
		return fmt.Errorf("%w: fit test rows %d exceeds the cap of %d", ErrRequest, fc.TestRows, MaxTestRows)
	}
	return nil
}

// Do executes one measure request against the bench. The observation
// depends only on the request's content and seed — never on what the
// bench measured before — so it is safe for concurrent use and
// reproducible in any process with the same (deterministic) physics.
func (b *Bench) Do(req Request) (Measurement, error) {
	if op := req.op(); op != OpMeasure {
		return Measurement{}, fmt.Errorf("%w: bench cannot execute op %q", ErrRequest, op)
	}
	if req.Scenario == nil {
		return Measurement{}, fmt.Errorf("%w: nil scenario", ErrRequest)
	}
	return b.measureFramesNoise(req.Scenario, req.Trials, stats.NewRNG(req.Seed), req.NoiseRel)
}

// Executor evaluates requests with process-local resources: a bench for
// measure requests and a lazily fitted, memoized model bundle per
// FitConfig for analyze requests. It is safe for concurrent use.
type Executor struct {
	bench *Bench

	// fit builds the model bundle for a config; tests substitute it.
	fit func(FitConfig) (energy.Models, error)

	mu   sync.Mutex
	fits map[FitConfig]*fitEntry
}

// fitEntry is one config's bundle, fitted at most once: the first
// caller runs the fit, later ones wait on once, and e.mu is held only
// to find or create the entry — never across a fit, so other configs'
// analyses never queue behind an unrelated refit.
type fitEntry struct {
	once   sync.Once
	models energy.Models
	err    error
}

// NewExecutor builds an executor; a nil bench gets a default one (the
// hidden physics is deterministic, so any two default benches measure
// identically for seeded requests).
func NewExecutor(bench *Bench) *Executor {
	if bench == nil {
		bench = NewBench(0)
	}
	return &Executor{bench: bench, fit: fitBundle, fits: make(map[FitConfig]*fitEntry)}
}

// Do executes one request, aborting promptly when ctx is canceled.
// Measure and analyze requests are single frames and complete regardless;
// session requests — potentially thousands of users × frames — check the
// context every frame, which is what lets a dispatcher kill an in-flight
// population shard mid-run. The node-side work caps are checked where
// the work is done: the trial cap here, before a measurement, and the
// fit-row caps in fitted, before a fit.
func (e *Executor) Do(ctx context.Context, req Request) (Measurement, error) {
	switch req.op() {
	case OpMeasure:
		if err := req.checkTrials(); err != nil {
			return Measurement{}, err
		}
		return e.bench.Do(req)
	case OpAnalyze:
		return e.analyze(req)
	case OpSession:
		return e.runSessions(ctx, req)
	default:
		return Measurement{}, fmt.Errorf("%w: unknown op %q", ErrRequest, req.Op)
	}
}

// DoBatch executes a batch of requests sequentially and reports each
// outcome in a WireItem — request-level failures are carried per item,
// never failing the batch. Analyze cells resolve their model bundle
// through the executor's memoized fit table, so a config refits at most
// once per executor lifetime regardless of batching.
func (e *Executor) DoBatch(ctx context.Context, reqs []Request) []WireItem {
	items := make([]WireItem, len(reqs))
	for i, r := range reqs {
		if m, err := e.Do(ctx, r); err != nil {
			items[i].Err = err.Error()
		} else {
			items[i].M = m
		}
	}
	return items
}

// analyze evaluates the analytical model bundle on the scenario and
// reports the noise-free breakdowns in Measurement form.
func (e *Executor) analyze(req Request) (Measurement, error) {
	if req.Scenario == nil {
		return Measurement{}, fmt.Errorf("%w: nil scenario", ErrRequest)
	}
	models, err := e.models(req.Fit)
	if err != nil {
		return Measurement{}, err
	}
	eb, lb, err := models.FrameEnergy(req.Scenario)
	if err != nil {
		return Measurement{}, fmt.Errorf("analyze: %w", err)
	}
	return Measurement{
		LatencyMs: lb.Total,
		EnergyMJ:  eb.Total,
		Latency:   lb,
		Energy:    eb,
	}, nil
}

// models resolves the bundle for a fit config, refitting at most once per
// distinct config per executor. Fitting is deterministic in the config,
// so every process resolves the same coefficients.
func (e *Executor) models(fc *FitConfig) (energy.Models, error) {
	if fc == nil {
		return energy.PaperModels(), nil
	}
	ent := e.fitted(*fc)
	return ent.models, ent.err
}

// fitted returns fc's entry once its fit has run. Configs over the work
// caps fail without fitting, and without an entry in the table.
func (e *Executor) fitted(fc FitConfig) *fitEntry {
	if err := fc.checkWork(); err != nil {
		return &fitEntry{err: err}
	}
	e.mu.Lock()
	ent, ok := e.fits[fc]
	if !ok {
		ent = &fitEntry{}
		e.fits[fc] = ent
	}
	e.mu.Unlock()
	ent.once.Do(func() {
		if ent.models, ent.err = e.fit(fc); ent.err != nil {
			ent.err = fmt.Errorf("refit %+v: %w", fc, ent.err)
		}
	})
	return ent
}

// fitBundle fits the analytical model bundle a config identifies.
func fitBundle(fc FitConfig) (energy.Models, error) {
	fitted, err := NewBench(fc.Seed).FitModels(fc.TrainRows, fc.TestRows)
	if err != nil {
		return energy.Models{}, err
	}
	lm := latency.Models{
		Resource:   fitted.Resource,
		Encoder:    fitted.Encoder,
		Complexity: fitted.Complexity,
	}
	return energy.Models{Latency: lm, Power: fitted.Power}, nil
}
