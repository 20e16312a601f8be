package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unicode"
	"unicode/utf8"

	"repro/internal/device"
	"repro/internal/pipeline"
	"repro/internal/testbed"
)

// TestMain lets the proc backend re-execute this test binary as a
// measurement worker instead of re-running the test suite.
func TestMain(m *testing.M) {
	testbed.MaybeServeWorker()
	os.Exit(m.Run())
}

// testRequests builds a deterministic batch of seeded measurement
// requests over a small scenario grid.
func testRequests(t testing.TB, trials int) []testbed.Request {
	t.Helper()
	dev, err := device.ByName("XR1")
	if err != nil {
		t.Fatal(err)
	}
	var reqs []testbed.Request
	for _, mode := range []pipeline.InferenceMode{pipeline.ModeLocal, pipeline.ModeRemote} {
		for _, size := range []float64{300, 500, 700} {
			sc, err := pipeline.NewScenario(dev,
				pipeline.WithMode(mode), pipeline.WithFrameSize(size))
			if err != nil {
				t.Fatal(err)
			}
			req := testbed.Request{Scenario: sc, Trials: trials, NoiseRel: testbed.DefaultNoiseRel}
			seed, err := req.ContentSeed(42)
			if err != nil {
				t.Fatal(err)
			}
			req.Seed = seed
			reqs = append(reqs, req)
		}
	}
	return reqs
}

// requireSh skips tests that drive a crashing worker through /bin/sh.
func requireSh(t *testing.T) {
	t.Helper()
	if _, err := exec.LookPath("sh"); err != nil {
		t.Skip("sh not available")
	}
}

// TestPoolRunnerMatchesDirectExecution pins the pool backend against
// direct serial execution: same requests, bit-identical measurements,
// at any worker count.
func TestPoolRunnerMatchesDirectExecution(t *testing.T) {
	reqs := testRequests(t, 4)
	exec := testbed.NewExecutor(nil)
	want := make([]testbed.Measurement, len(reqs))
	for i, r := range reqs {
		m, err := exec.Do(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = m
	}
	for _, workers := range []int{1, 4} {
		p := &PoolRunner{Workers: workers}
		got, err := p.Run(context.Background(), reqs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: point %d diverges from direct execution", workers, i)
			}
		}
	}
}

// TestProcRunnerMatchesPool pins the tentpole invariant at the runner
// layer: subprocess workers reproduce the in-process pool bit for bit —
// the binary wire codec round-trips every float exactly.
func TestProcRunnerMatchesPool(t *testing.T) {
	reqs := testRequests(t, 4)
	want, err := (&PoolRunner{Workers: 2}).Run(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	pr := &ProcRunner{Procs: 2}
	defer pr.Close()
	got, err := pr.Run(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d diverges across the process boundary:\npool %+v\nproc %+v", i, want[i], got[i])
		}
	}
}

// TestProcRunnerBatchPipelineConfigs pins the tuning contract: any
// batch size and pipeline depth produce the same measurements bit for
// bit — the knobs change wire traffic, never output.
func TestProcRunnerBatchPipelineConfigs(t *testing.T) {
	reqs := testRequests(t, 2)
	want, err := (&PoolRunner{Workers: 2}).Run(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	configs := []ProcRunner{
		{Procs: 1, Batch: 1, Pipeline: 1},
		{Procs: 2, Batch: 2, Pipeline: 3},
		{Procs: 3, Batch: 64, Pipeline: 2},
		{Procs: 2},
		{Procs: 2, Batch: 1},
	}
	for i := range configs {
		pr := &configs[i]
		got, err := pr.Run(context.Background(), reqs)
		pr.Close()
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("config %d point %d diverges from pool", i, j)
			}
		}
	}
}

// TestProcRunnerStreamsInOrder checks prefix-ordered delivery and pool
// reuse across calls on one persistent runner.
func TestProcRunnerStreamsInOrder(t *testing.T) {
	reqs := testRequests(t, 2)
	pr := &ProcRunner{Procs: 2}
	defer pr.Close()
	for round := 0; round < 2; round++ {
		next := 0
		err := pr.Stream(context.Background(), reqs, func(idx int, _ testbed.Measurement) error {
			if idx != next {
				return fmt.Errorf("emitted %d, want %d", idx, next)
			}
			next++
			return nil
		})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if next != len(reqs) {
			t.Fatalf("round %d: emitted %d of %d", round, next, len(reqs))
		}
	}
}

// TestProcRunnerWorkerCrash pins crash recovery: a worker that dies
// without ever completing its handshake must surface a descriptive
// error — exit status and stderr included — not hang the sweep.
func TestProcRunnerWorkerCrash(t *testing.T) {
	requireSh(t)
	reqs := testRequests(t, 2)
	pr := &ProcRunner{
		Procs:   2,
		Command: []string{"sh", "-c", "echo boom >&2; exit 9"},
	}
	defer pr.Close()

	done := make(chan error, 1)
	go func() { _, err := pr.Run(context.Background(), reqs); done <- err }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("crashed worker must fail the sweep")
		}
		msg := err.Error()
		if !strings.Contains(msg, "worker") || !strings.Contains(msg, "boom") {
			t.Fatalf("crash error not descriptive: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sweep hung on a crashed worker")
	}
}

// TestProcRunnerSilentWorkerFails pins a bounded handshake: a worker
// that starts but never says hello is given up on after the handshake
// timeout, once per attempt, with an error naming it — the sweep must
// fail on its own, without a caller deadline.
func TestProcRunnerSilentWorkerFails(t *testing.T) {
	if _, err := exec.LookPath("sleep"); err != nil {
		t.Skip("sleep not available")
	}
	pr := &ProcRunner{Procs: 1, Command: []string{"sleep", "60"}}
	defer pr.Close()

	done := make(chan error, 1)
	start := time.Now()
	// One request is one batch, so the sweep spends exactly its
	// procShardAttempts on two silent workers.
	reqs := testRequests(t, 1)[:1]
	go func() { _, err := pr.Run(context.Background(), reqs); done <- err }()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "worker 1: handshake timed out") {
			t.Fatalf("silent worker error = %v, want the second worker's handshake timeout", err)
		}
		if elapsed := time.Since(start); elapsed < procShardAttempts*netDialTimeout {
			t.Fatalf("gave up after %v, before %d handshake timeouts", elapsed, procShardAttempts)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sweep hung on a silent worker")
	}
}

// TestProcRunnerStealsFromStalledWorker pins stealing on the proc
// backend: the first worker spawned says hello and then never answers,
// so the sweep finishes only if the healthy worker's lane steals the
// batches stuck in the stalled worker's window. The stolen work must
// change nothing about the output.
func TestProcRunnerStealsFromStalledWorker(t *testing.T) {
	requireSh(t)
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	var hello bytes.Buffer
	if err := testbed.WriteFrame(&hello, testbed.Hello()); err != nil {
		t.Fatal(err)
	}
	// The spawn that wins the mkdir lock passes only its worker's hello,
	// then holds the pipes open without ever answering; every later
	// spawn is a plain worker.
	script := fmt.Sprintf(`if mkdir "$1" 2>/dev/null; then "$0" | head -c %d; exec sleep 600; fi; exec "$0"`, hello.Len())
	lock := filepath.Join(t.TempDir(), "stalled")
	base := testRequests(t, 4)
	reqs := append(append([]testbed.Request{}, base...), base...) // 12 batches at Batch:1
	want, err := (&PoolRunner{Workers: 2}).Run(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	pr := &ProcRunner{Procs: 2, Batch: 1, Pipeline: 2, Command: []string{"sh", "-c", script, exe, lock}}
	defer pr.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	got, err := pr.Run(ctx, reqs)
	if err != nil {
		t.Fatalf("a sweep whose worker never answers must finish by stealing: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d diverged from pool", i)
		}
	}
}

// TestProcRunnerBadCommand checks that an unstartable worker command
// fails fast with a descriptive error.
func TestProcRunnerBadCommand(t *testing.T) {
	pr := &ProcRunner{Procs: 1, Command: []string{"/nonexistent/xrperf-worker"}}
	defer pr.Close()
	_, err := pr.Run(context.Background(), testRequests(t, 1))
	if err == nil || !strings.Contains(err.Error(), "start worker") {
		t.Fatalf("bad command error = %v", err)
	}
}

// TestProcRunnerCancelMidShard pins mid-shard cancelation: canceling the
// context while workers are deep inside a long request must kill the
// in-flight round trips and return promptly with context.Canceled — the
// subprocess pipe must not hold the sweep hostage.
func TestProcRunnerCancelMidShard(t *testing.T) {
	// A session request at the work cap: valid, and far too large to
	// finish before the cancel.
	reqs := testRequests(t, 1)
	for i := range reqs {
		reqs[i].Op = testbed.OpSession
		reqs[i].Trials = 0
		reqs[i].Session = &testbed.SessionConfig{Users: 10000, Frames: testbed.MaxSessionFrames / 10000}
	}
	pr := &ProcRunner{Procs: 2}
	defer pr.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { _, err := pr.Run(ctx, reqs); done <- err }()
	time.Sleep(200 * time.Millisecond)
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Fatalf("cancelation took %v", elapsed)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sweep hung after mid-shard cancelation")
	}
}

// TestProcRunnerRecoversAfterRequestError checks that a request-level
// failure (reported by a healthy worker) surfaces with its message and
// that the same runner keeps working afterwards — the suspect worker is
// replaced, not the pool poisoned.
func TestProcRunnerRecoversAfterRequestError(t *testing.T) {
	good := testRequests(t, 2)
	bad := make([]testbed.Request, len(good))
	copy(bad, good)
	bad[1].Trials = 0 // worker rejects: "trial count 0"
	pr := &ProcRunner{Procs: 2}
	defer pr.Close()

	if _, err := pr.Run(context.Background(), bad); err == nil || !strings.Contains(err.Error(), "trial count") {
		t.Fatalf("bad request error = %v", err)
	}
	if _, err := pr.Run(context.Background(), good); err != nil {
		t.Fatalf("runner did not recover: %v", err)
	}
}

// TestProcRunnerRejectsUnserializable checks the wire-safety gate:
// scenarios carrying process-local path-loss models cannot cross the
// worker boundary and must be rejected up front.
func TestProcRunnerRejectsUnserializable(t *testing.T) {
	reqs := testRequests(t, 2)
	reqs[1].Scenario.EdgeLink.Loss = pathLossStub{}
	pr := &ProcRunner{Procs: 1}
	defer pr.Close()
	_, err := pr.Run(context.Background(), reqs)
	if !errors.Is(err, testbed.ErrRequest) || !strings.Contains(err.Error(), "point 1") {
		t.Fatalf("unserializable request error = %v", err)
	}
}

type pathLossStub struct{}

func (pathLossStub) ThroughputFactor(float64) float64 { return 1 }

// TestCachedRunnerMemoizes pins the cache contract: identical cells are
// measured once per runner lifetime, results are bit-identical to the
// uncached backend, in-batch duplicates resolve to one measurement, and
// Op "" and "measure" share an entry.
func TestCachedRunnerMemoizes(t *testing.T) {
	reqs := testRequests(t, 3)
	dup := append(append([]testbed.Request{}, reqs...), reqs[0], reqs[2])

	want, err := (&PoolRunner{}).Run(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}

	c := NewCachedRunner(&PoolRunner{})
	got, err := c.Run(context.Background(), dup)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		if got[i] != want[i] {
			t.Fatalf("cached point %d diverges from uncached backend", i)
		}
	}
	if got[len(reqs)] != want[0] || got[len(reqs)+1] != want[2] {
		t.Fatal("in-batch duplicates diverge from their originals")
	}
	st := c.Stats()
	if st.Misses != int64(len(reqs)) || st.Hits != 2 {
		t.Fatalf("after first batch: %+v, want %d misses / 2 hits", st, len(reqs))
	}

	// A full re-run is served entirely from the cache.
	again, err := c.Run(context.Background(), dup)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if again[i] != got[i] {
			t.Fatalf("cache replay diverges at %d", i)
		}
	}
	st = c.Stats()
	if st.Misses != int64(len(reqs)) || st.Hits != 2+int64(len(dup)) {
		t.Fatalf("after replay: %+v", st)
	}

	// Op "" and "measure" name one cell: the explicit spelling replays
	// from the cache too.
	explicit := append([]testbed.Request(nil), reqs...)
	for i := range explicit {
		explicit[i].Op = testbed.OpMeasure
	}
	spelled, err := c.Run(context.Background(), explicit)
	if err != nil {
		t.Fatal(err)
	}
	for i := range spelled {
		if spelled[i] != got[i] {
			t.Fatalf("explicit-Op replay diverges at %d", i)
		}
	}
	if st := c.Stats(); st.Misses != int64(len(reqs)) || st.Hits != 2+int64(len(dup)+len(reqs)) {
		t.Fatalf("after explicit-Op replay: %+v", st)
	}
}

// TestCachedRunnerPassesThroughUnfingerprintable checks that scenarios
// carrying process-local path-loss models — whose behaviour their JSON
// encoding cannot capture — execute uncached instead of colliding on a
// lossy cache key: two behaviourally different models on the same cell
// must keep their own measurements.
func TestCachedRunnerPassesThroughUnfingerprintable(t *testing.T) {
	reqs := testRequests(t, 3)[3:5] // two remote cells
	withLoss := func(f float64) []testbed.Request {
		out := make([]testbed.Request, len(reqs))
		for i, r := range reqs {
			sc := *r.Scenario
			sc.EdgeLink.Loss = scaledLoss{f}
			r.Scenario = &sc
			out[i] = r
		}
		return out
	}
	c := NewCachedRunner(&PoolRunner{})
	strong, err := c.Run(context.Background(), withLoss(0.5))
	if err != nil {
		t.Fatal(err)
	}
	weak, err := c.Run(context.Background(), withLoss(0.9))
	if err != nil {
		t.Fatal(err)
	}
	for i := range strong {
		if strong[i] == weak[i] {
			t.Fatalf("point %d: distinct path-loss models returned one cached measurement", i)
		}
	}
	if st := c.Stats(); st.Hits != 0 || st.Entries != 0 {
		t.Fatalf("unfingerprintable requests leaked into the cache: %+v", st)
	}
}

type scaledLoss struct{ f float64 }

func (l scaledLoss) ThroughputFactor(float64) float64 { return l.f }

// TestCachedRunnerConcurrentSingleflight checks that identical cells
// requested by concurrent batches (the RunAll shape: many experiments
// sharing grid cells) are measured exactly once.
func TestCachedRunnerConcurrentSingleflight(t *testing.T) {
	reqs := testRequests(t, 3)
	c := NewCachedRunner(&PoolRunner{})
	const callers = 8
	results := make([][]testbed.Measurement, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ms, err := c.Run(context.Background(), reqs)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = ms
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		for j := range reqs {
			if results[i][j] != results[0][j] {
				t.Fatalf("caller %d point %d diverges", i, j)
			}
		}
	}
	st := c.Stats()
	if st.Misses != int64(len(reqs)) {
		t.Fatalf("measured %d cells across %d concurrent callers, want %d", st.Misses, callers, len(reqs))
	}
	if st.Hits != int64((callers-1)*len(reqs)) {
		t.Fatalf("hits = %d, want %d", st.Hits, (callers-1)*len(reqs))
	}
}

// flakyFirstRunner hangs its first Stream call until that call's context
// is canceled (simulating an owner whose batch dies mid-measurement) and
// delegates every later call to a real pool.
type flakyFirstRunner struct {
	inner PoolRunner
	calls atomic.Int64
}

func (f *flakyFirstRunner) Stream(ctx context.Context, reqs []testbed.Request, emit func(int, testbed.Measurement) error) error {
	if f.calls.Add(1) == 1 {
		<-ctx.Done()
		return ctx.Err()
	}
	return f.inner.Stream(ctx, reqs, emit)
}

func (f *flakyFirstRunner) Run(ctx context.Context, reqs []testbed.Request) ([]testbed.Measurement, error) {
	return collectStream(ctx, len(reqs), func(ctx context.Context, emit func(int, testbed.Measurement) error) error {
		return f.Stream(ctx, reqs, emit)
	})
}

// TestCachedRunnerWaiterSurvivesForeignCancel pins the singleflight
// cancelation semantics: a caller waiting on another caller's in-flight
// measurement must not inherit that caller's cancelation — when the
// owner dies canceled, a live waiter re-dispatches the cell and
// succeeds.
func TestCachedRunnerWaiterSurvivesForeignCancel(t *testing.T) {
	reqs := testRequests(t, 2)[:1]
	want, err := (&PoolRunner{}).Run(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}

	fr := &flakyFirstRunner{}
	c := NewCachedRunner(fr)
	ctxA, cancelA := context.WithCancel(context.Background())
	aDone := make(chan error, 1)
	go func() {
		_, err := c.Run(ctxA, reqs)
		aDone <- err
	}()
	for fr.calls.Load() == 0 { // A owns the entry once its backend is called
		runtime.Gosched()
	}
	type bResult struct {
		ms  []testbed.Measurement
		err error
	}
	bDone := make(chan bResult, 1)
	go func() {
		ms, err := c.Run(context.Background(), reqs)
		bDone <- bResult{ms, err}
	}()
	for c.Stats().Hits < 1 { // B has classified as a waiter on A's entry
		runtime.Gosched()
	}
	cancelA()

	if err := <-aDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("owner err = %v, want context.Canceled", err)
	}
	b := <-bDone
	if b.err != nil {
		t.Fatalf("live waiter inherited the owner's cancelation: %v", b.err)
	}
	if b.ms[0] != want[0] {
		t.Fatal("retried measurement diverges from the uncached backend")
	}
}

// errFirstRunner fails its first Stream call with a transient backend
// error after being observed (simulating e.g. a crashed worker) and
// delegates every later call to a real pool.
type errFirstRunner struct {
	inner    PoolRunner
	calls    atomic.Int64
	observed chan struct{} // closed by the test once a waiter is attached
}

func (f *errFirstRunner) Stream(ctx context.Context, reqs []testbed.Request, emit func(int, testbed.Measurement) error) error {
	if f.calls.Add(1) == 1 {
		<-f.observed
		return fmt.Errorf("backend worker crashed (transient)")
	}
	return f.inner.Stream(ctx, reqs, emit)
}

func (f *errFirstRunner) Run(ctx context.Context, reqs []testbed.Request) ([]testbed.Measurement, error) {
	return collectStream(ctx, len(reqs), func(ctx context.Context, emit func(int, testbed.Measurement) error) error {
		return f.Stream(ctx, reqs, emit)
	})
}

// TestCachedRunnerWaiterRetriesTransientFailure pins the waiter retry
// symmetry: a non-owning waiter that observes the owner's entry fail
// with a transient (non-Canceled) backend error must re-enter the cache
// and retry — the entry is already evicted — instead of returning the
// owner's stale error.
func TestCachedRunnerWaiterRetriesTransientFailure(t *testing.T) {
	reqs := testRequests(t, 2)[:1]
	want, err := (&PoolRunner{}).Run(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}

	fr := &errFirstRunner{observed: make(chan struct{})}
	c := NewCachedRunner(fr)
	aDone := make(chan error, 1)
	go func() {
		_, err := c.Run(context.Background(), reqs)
		aDone <- err
	}()
	for fr.calls.Load() == 0 { // A owns the entry once its backend is called
		runtime.Gosched()
	}
	type bResult struct {
		ms  []testbed.Measurement
		err error
	}
	bDone := make(chan bResult, 1)
	go func() {
		ms, err := c.Run(context.Background(), reqs)
		bDone <- bResult{ms, err}
	}()
	for c.Stats().Hits < 1 { // B has classified as a waiter on A's entry
		runtime.Gosched()
	}
	close(fr.observed) // now A's backend fails

	if err := <-aDone; err == nil || !strings.Contains(err.Error(), "crashed") {
		t.Fatalf("owner err = %v, want the transient backend error", err)
	}
	b := <-bDone
	if b.err != nil {
		t.Fatalf("waiter returned the owner's stale error instead of retrying: %v", b.err)
	}
	if b.ms[0] != want[0] {
		t.Fatal("retried measurement diverges from the uncached backend")
	}
}

// TestCachedRunnerStatsConsistentMidRun pins the Stats snapshot
// invariants while runs are in flight: completed entries never exceed
// the cells accounted as measured or disk-loaded, and counters never
// go backwards. Run under -race this also proves Stats is safe against
// concurrent classification.
func TestCachedRunnerStatsConsistentMidRun(t *testing.T) {
	reqs := testRequests(t, 2)
	c := NewCachedRunner(&PoolRunner{})
	stop := make(chan struct{})
	statsDone := make(chan struct{})
	go func() {
		defer close(statsDone)
		var prev CacheStats
		for {
			st := c.Stats()
			if int64(st.Entries) > st.Misses+st.DiskHits {
				t.Errorf("snapshot reports %d completed entries for %d dispatched+loaded cells: %+v",
					st.Entries, st.Misses+st.DiskHits, st)
				return
			}
			if st.Hits < prev.Hits || st.Misses < prev.Misses || st.DiskHits < prev.DiskHits {
				t.Errorf("counters went backwards: %+v then %+v", prev, st)
				return
			}
			prev = st
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				if _, err := c.Run(context.Background(), reqs); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-statsDone

	st := c.Stats()
	if st.Entries != len(reqs) {
		t.Fatalf("final Entries = %d, want %d completed cells", st.Entries, len(reqs))
	}
	if st.Misses != int64(len(reqs)) {
		t.Fatalf("final Misses = %d, want %d", st.Misses, len(reqs))
	}
}

// TestCachedRunnerStatsExcludesInFlight pins the Entries definition: a
// cell whose measurement is still in flight is not a memoized entry.
func TestCachedRunnerStatsExcludesInFlight(t *testing.T) {
	reqs := testRequests(t, 2)[:1]
	fr := &errFirstRunner{observed: make(chan struct{})}
	c := NewCachedRunner(fr)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = c.Run(context.Background(), reqs)
	}()
	for fr.calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	if st := c.Stats(); st.Entries != 0 || st.Misses != 1 {
		t.Fatalf("in-flight cell counted as memoized: %+v", st)
	}
	close(fr.observed)
	<-done
}

// TestCachedRunnerCapsWaiterFanout pins the goroutine bound of one
// Stream call: a 2000-cell batch adds only the backend and the disk
// writer (plus the goroutine the test calls Stream on), never one per
// request, and the count is back at its baseline once the call returns
// — after a success, an emit error, a backend error and a caller
// cancel alike.
func TestCachedRunnerCapsWaiterFanout(t *testing.T) {
	const n = 2000
	base := testRequests(t, 2)[:1]
	reqs := make([]testbed.Request, n)
	for i := range reqs {
		reqs[i] = base[0]
		reqs[i].Seed = int64(i) // distinct cells, same fingerprint
	}
	errBackend := errors.New("backend down")
	errEmit := errors.New("sink full")
	for _, tc := range []struct {
		name     string
		fail     error // returned by the backend once released
		failEmit int   // index whose emit fails; -1 for none
		cancel   bool  // cancel the caller instead of releasing
		want     error
	}{
		{name: "success", failEmit: -1},
		{name: "emit error", failEmit: 10, want: errEmit},
		{name: "backend error", fail: errBackend, failEmit: -1, want: errBackend},
		{name: "caller cancel", failEmit: -1, cancel: true, want: context.Canceled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "cache")
			disk, err := OpenDiskCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			// A plain file where the store's directory was: every
			// best-effort write-back fails at once, so the writer
			// goroutine runs without 2000 file writes.
			if err := os.RemoveAll(dir); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(dir, nil, 0o644); err != nil {
				t.Fatal(err)
			}
			br := &blockingRunner{release: make(chan struct{}), fail: tc.fail}
			c := NewCachedRunner(br, WithDiskCache(disk))
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()

			before := runtime.NumGoroutine()
			done := make(chan error, 1)
			go func() {
				done <- c.Stream(ctx, reqs, func(i int, _ testbed.Measurement) error {
					if i == tc.failEmit {
						return errEmit
					}
					return nil
				})
			}()
			for br.started.Load() == 0 {
				runtime.Gosched()
			}
			// The disk writer starts before the backend, and the walk is
			// blocked on cell 0: every goroutine the call makes is live.
			if added := runtime.NumGoroutine() - before; added > 3 {
				t.Fatalf("batch of %d added %d goroutines, want ≤ 3 (caller, backend, disk writer)", n, added)
			}
			if tc.cancel {
				cancel()
			} else {
				close(br.release)
			}
			if err := <-done; !errors.Is(err, tc.want) {
				t.Fatalf("Stream err = %v, want %v", err, tc.want)
			}
			deadline := time.Now().Add(10 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines outlive the call (baseline %d)", runtime.NumGoroutine(), before)
				}
				runtime.Gosched()
			}
		})
	}
}

// blockingRunner parks every Stream call until released, then emits
// zero measurements in order, or fails with fail when it is set.
type blockingRunner struct {
	release chan struct{}
	fail    error
	started atomic.Int64
}

func (b *blockingRunner) Stream(ctx context.Context, reqs []testbed.Request, emit func(int, testbed.Measurement) error) error {
	b.started.Add(1)
	select {
	case <-b.release:
	case <-ctx.Done():
		return ctx.Err()
	}
	if b.fail != nil {
		return b.fail
	}
	for j := range reqs {
		if err := emit(j, testbed.Measurement{}); err != nil {
			return err
		}
	}
	return nil
}

func (b *blockingRunner) Run(ctx context.Context, reqs []testbed.Request) ([]testbed.Measurement, error) {
	return collectStream(ctx, len(reqs), func(ctx context.Context, emit func(int, testbed.Measurement) error) error {
		return b.Stream(ctx, reqs, emit)
	})
}

// TestTailWriterSanitizesSuffix pins the stderr-tail hygiene rules: the
// byte-limit truncation may split a multi-byte rune and subprocess
// stderr may carry control bytes, but the rendered suffix must be valid
// printable single-line UTF-8.
func TestTailWriterSanitizesSuffix(t *testing.T) {
	tw := &tailWriter{limit: 33}
	// 'é' is 2 bytes: dropping an odd byte count from "x" + é… leaves a
	// tail that starts mid-rune after truncation.
	if _, err := tw.Write([]byte("x" + strings.Repeat("é", 30))); err != nil {
		t.Fatal(err)
	}
	if _, err := tw.Write([]byte("\x00\x01 panic:\nboom\twide \x7f end")); err != nil {
		t.Fatal(err)
	}
	s := tw.suffix()
	if !utf8.ValidString(s) {
		t.Fatalf("suffix is not valid UTF-8: %q", s)
	}
	for _, r := range s {
		if !unicode.IsPrint(r) {
			t.Fatalf("suffix contains non-printable %q: %q", r, s)
		}
	}
	if strings.Contains(s, "\n") || strings.Contains(s, "�") {
		t.Fatalf("suffix not a clean single line: %q", s)
	}
	if !strings.Contains(s, "panic:") || !strings.Contains(s, "boom") {
		t.Fatalf("suffix lost real content: %q", s)
	}
	if empty := (&tailWriter{limit: 8}); empty.suffix() != "" {
		t.Fatal("empty tail must render as empty suffix")
	}
	// A tail of pure garbage sanitizes to nothing, not to "; stderr: ".
	junk := &tailWriter{limit: 8}
	if _, err := junk.Write([]byte{0x00, 0xff, 0xfe, 0x01}); err != nil {
		t.Fatal(err)
	}
	if s := junk.suffix(); s != "" {
		t.Fatalf("garbage-only tail rendered %q", s)
	}
}

// TestCachedRunnerEvictsFailures checks that a failed measurement is not
// memoized: the cell retries on the next call instead of replaying the
// error forever.
func TestCachedRunnerEvictsFailures(t *testing.T) {
	reqs := testRequests(t, 2)
	reqs[1].Trials = 0 // fails at the bench
	c := NewCachedRunner(&PoolRunner{})
	if _, err := c.Run(context.Background(), reqs); err == nil {
		t.Fatal("bad request must fail")
	}
	before := c.Stats()
	if _, err := c.Run(context.Background(), reqs); err == nil {
		t.Fatal("bad request must fail again (not a cached success)")
	}
	after := c.Stats()
	if after.Misses <= before.Misses {
		t.Fatalf("failed cell was not retried: %+v → %+v", before, after)
	}
	if after.Entries > 1 {
		t.Fatalf("failed cell left %d entries memoized", after.Entries)
	}
}
