package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/job"
	"repro/internal/sweep"
	"repro/internal/testbed"
)

// fastSpec is the execution environment every test job runs under —
// small dataset, few trials, fixed seed — matching the CLI test suite's
// fast flags so expected bytes stay cheap to compute.
func fastSpec() job.Spec {
	s := job.Default()
	s.TrainRows = 2000
	s.TestRows = 500
	s.Trials = 5
	s.Workers = 2
	return s
}

// sweepJob builds a small sweep job over the given frame sizes.
func sweepJob(format string, sizes ...float64) job.Job {
	g := job.Grid{Devices: []string{"XR1"}, Modes: []string{"local", "remote"}, Sizes: sizes}
	return job.Job{Kind: job.KindSweep, Spec: fastSpec(), Grid: &g, Format: format}
}

// oneShot renders the job exactly as the one-shot CLI would: a fresh
// suite on the job's own spec, buffered output.
func oneShot(t testing.TB, jb job.Job) string {
	t.Helper()
	suite, cleanup, err := jb.Spec.BuildSuite()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	var buf bytes.Buffer
	if err := jb.Run(context.Background(), suite, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// startServer runs a job server on a loopback listener for the test's
// lifetime, returning its address, the server, and its shared runner.
func startServer(t testing.TB, cfg Config) (string, *Server, *sweep.CachedRunner) {
	t.Helper()
	if cfg.Runner == nil {
		cfg.Runner = sweep.NewCachedRunner(&sweep.PoolRunner{Workers: 2})
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ctx, ln)
	}()
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Error("server did not shut down")
		}
	})
	return ln.Addr().String(), srv, cfg.Runner
}

// TestSubmitMatchesOneShot pins the tentpole contract: for the same job
// document, a submit round trip through a live server prints exactly the
// bytes the one-shot CLI prints — table and CSV sweeps and the full
// report, cold cache and warm.
func TestSubmitMatchesOneShot(t *testing.T) {
	addr, _, _ := startServer(t, Config{})
	jobs := map[string]job.Job{
		"sweep-table": sweepJob("table", 300, 500),
		"sweep-csv":   sweepJob("csv", 300, 500),
		"report":      {Kind: job.KindReport, Spec: fastSpec()},
	}
	for name, jb := range jobs {
		t.Run(name, func(t *testing.T) {
			want := oneShot(t, jb)
			for _, round := range []string{"cold", "warm"} {
				var got bytes.Buffer
				if err := Submit(context.Background(), addr, jb, &got); err != nil {
					t.Fatalf("%s submit: %v", round, err)
				}
				if got.String() != want {
					t.Fatalf("%s submit diverges from one-shot output:\nserver %q\ncli    %q", round, got.String(), want)
				}
			}
		})
	}
}

// TestServerSoakConcurrentClients is the soak test: many concurrent
// clients with overlapping grids against one server. Every client must
// receive exactly the one-shot bytes for its own job (streams never
// interleave across connections), and the shared cache must have
// measured each unique cell exactly once globally — the overlap is
// deduplicated across clients, not just within one.
func TestServerSoakConcurrentClients(t *testing.T) {
	addr, srv, runner := startServer(t, Config{MaxActive: 4})

	// Two overlapping grids: {300,500} and {500,700} share the 500-size
	// cells. XR1 × {local,remote} × sizes → 4 cells each, 6 unique.
	gridA := sweepJob("table", 300, 500)
	gridB := sweepJob("csv", 500, 700)
	wantA := oneShot(t, gridA)
	wantB := oneShot(t, gridB)
	const clients = 8

	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		jb, want := gridA, wantA
		if i%2 == 1 {
			jb, want = gridB, wantB
		}
		wg.Add(1)
		go func(i int, jb job.Job, want string) {
			defer wg.Done()
			var got bytes.Buffer
			if err := Submit(context.Background(), addr, jb, &got); err != nil {
				errs[i] = err
				return
			}
			if got.String() != want {
				errs[i] = fmt.Errorf("client %d bytes diverge:\ngot  %q\nwant %q", i, got.String(), want)
			}
		}(i, jb, want)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if st := runner.Stats(); st.Misses != 6 {
		t.Fatalf("shared cache measured %d unique cells, want exactly 6 (global dedupe across clients)", st.Misses)
	}
	st := srv.Stats()
	if st.Completed != clients {
		t.Fatalf("server completed %d jobs, want %d (failed %d, rejected %d)", st.Completed, clients, st.Failed, st.Rejected)
	}
}

// slowRunner builds a cached runner whose every measurement takes delay,
// so admission-control behavior can be driven deterministically.
func slowRunner(delay time.Duration) *sweep.CachedRunner {
	return sweep.NewCachedRunner(&sweep.ChaosRunner{
		Backend: &sweep.PoolRunner{Workers: 1},
		Delay:   delay,
		Workers: 1,
	})
}

// TestServerBusyRejection pins the 429 path: with one active slot, no
// waiting room, and a slow job holding the slot, the next arrival is
// rejected busy — reported through ErrBusy with the queue state — and
// counted, not queued.
func TestServerBusyRejection(t *testing.T) {
	addr, srv, _ := startServer(t, Config{
		Runner:    slowRunner(500 * time.Millisecond),
		MaxActive: 1, QueueDepth: -1,
	})
	first := make(chan error, 1)
	go func() {
		var buf bytes.Buffer
		first <- Submit(context.Background(), addr, sweepJob("table", 300, 500), &buf)
	}()
	// Wait until the first job holds the active slot.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Active == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first job never became active")
		}
		time.Sleep(5 * time.Millisecond)
	}
	var buf bytes.Buffer
	err := Submit(context.Background(), addr, sweepJob("table", 300, 500), &buf)
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("second concurrent job: want ErrBusy, got %v", err)
	}
	if !strings.Contains(err.Error(), "queue full") {
		t.Fatalf("busy error does not describe the queue: %v", err)
	}
	if err := <-first; err != nil {
		t.Fatalf("first job: %v", err)
	}
	st := srv.Stats()
	if st.Rejected != 1 || st.Completed != 1 {
		t.Fatalf("counters: rejected %d completed %d, want 1/1", st.Rejected, st.Completed)
	}
}

// TestServerClientDisconnectCancels pins cancelation: a client that
// vanishes mid-job aborts the in-flight sweep through the ctx-first
// paths — the job fails server-side long before it could have finished,
// and the server stays healthy for the next client.
func TestServerClientDisconnectCancels(t *testing.T) {
	addr, srv, _ := startServer(t, Config{
		Runner:    slowRunner(time.Hour), // never finishes on its own
		MaxActive: 1,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	var buf bytes.Buffer
	if err := Submit(ctx, addr, sweepJob("table", 300, 500), &buf); err == nil {
		t.Fatal("submit with a dying client returned nil")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := srv.Stats()
		if st.Failed == 1 && st.Active == 0 && st.Queued == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job did not abort after client disconnect: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The slot is free again: a fast server is still serviceable.
	if _, err := QueryStats(context.Background(), addr); err != nil {
		t.Fatalf("server unhealthy after disconnect: %v", err)
	}
}

// TestServerJobTimeout pins the per-job deadline: a job running past
// JobTimeout is aborted and reported as a deadline error.
func TestServerJobTimeout(t *testing.T) {
	addr, srv, _ := startServer(t, Config{
		Runner:     slowRunner(time.Hour),
		JobTimeout: 150 * time.Millisecond,
	})
	var buf bytes.Buffer
	err := Submit(context.Background(), addr, sweepJob("table", 300, 500), &buf)
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("want a deadline error, got %v", err)
	}
	if st := srv.Stats(); st.Failed != 1 {
		t.Fatalf("timed-out job not counted failed: %+v", st)
	}
}

// TestServerShutdownWithJobsInFlight pins clean shutdown: canceling the
// serve context with a job mid-flight returns promptly — the in-flight
// job aborts through its context and the closed connection — and the
// client sees an error, not a hang.
func TestServerShutdownWithJobsInFlight(t *testing.T) {
	runner := slowRunner(time.Hour)
	srv, err := New(Config{Runner: runner, MaxActive: 1})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()
	clientErr := make(chan error, 1)
	go func() {
		var buf bytes.Buffer
		clientErr <- Submit(context.Background(), ln.Addr().String(), sweepJob("table", 300, 500), &buf)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Active == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job never became active")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v on cancelation", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return with a job in flight")
	}
	select {
	case err := <-clientErr:
		if err == nil {
			t.Fatal("client of a shut-down server got a clean stream")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("client hung after server shutdown")
	}
}

// TestServerValidationErrorParity pins satellite 4's contract end to
// end: for every class of invalid spec, the error text a submit client
// receives from the server is exactly the text job.Spec.Validate —
// and therefore the one-shot CLI — produces locally.
func TestServerValidationErrorParity(t *testing.T) {
	addr, _, _ := startServer(t, Config{})
	bad := []func(*job.Job){
		func(j *job.Job) { j.Spec.Backend = "teleport" },
		func(j *job.Job) { j.Spec.Backend = "net" },
		func(j *job.Job) { j.Spec.Backend = "pool"; j.Spec.Nodes = []string{"x:1"} },
		func(j *job.Job) { j.Spec.Workers = -1 },
		func(j *job.Job) { j.Spec.Trials = -3 },
		func(j *job.Job) { j.Spec.TrainRows = -1 },
		func(j *job.Job) { j.Grid = nil },
		func(j *job.Job) { j.Format = "xml" },
		func(j *job.Job) { j.Kind = "dance" },
	}
	for i, mutate := range bad {
		jb := sweepJob("table", 300)
		mutate(&jb)
		want := jb.Validate()
		if want == nil {
			t.Fatalf("case %d: job unexpectedly valid", i)
		}
		var buf bytes.Buffer
		err := Submit(context.Background(), addr, jb, &buf)
		if err == nil {
			t.Fatalf("case %d: server accepted an invalid job", i)
		}
		if err.Error() != want.Error() {
			t.Fatalf("case %d: server error diverges from local validation:\nserver %q\nlocal  %q", i, err, want)
		}
		if buf.Len() != 0 {
			t.Fatalf("case %d: invalid job produced output %q", i, buf.String())
		}
	}
}

// TestServerStatsSelfCheck pins the M/M/1 dogfood: after a batch of
// jobs, the stats snapshot's counters reconcile, the observed rates are
// positive, and the reported sojourn prediction is exactly the model's
// closed form 1/(µ−λ) at the observed rates.
func TestServerStatsSelfCheck(t *testing.T) {
	addr, _, _ := startServer(t, Config{MaxActive: 2})
	jb := sweepJob("table", 300, 500)
	for i := 0; i < 4; i++ {
		var buf bytes.Buffer
		if err := Submit(context.Background(), addr, jb, &buf); err != nil {
			t.Fatal(err)
		}
	}
	st, err := QueryStats(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	if st.Arrivals != st.Admitted+st.Rejected {
		t.Fatalf("arrivals %d != admitted %d + rejected %d", st.Arrivals, st.Admitted, st.Rejected)
	}
	if st.Completed != 4 || st.Failed != 0 || st.Queued != 0 || st.Active != 0 {
		t.Fatalf("queue counters off: %+v", st)
	}
	if st.LambdaPerMS <= 0 || st.MuPerMS <= 0 || st.ObservedSojournMS <= 0 {
		t.Fatalf("rates not observed: λ=%v µ=%v sojourn=%v", st.LambdaPerMS, st.MuPerMS, st.ObservedSojournMS)
	}
	if st.Rho <= 0 || st.Rho != st.LambdaPerMS/st.MuPerMS {
		t.Fatalf("rho %v inconsistent with λ/µ %v", st.Rho, st.LambdaPerMS/st.MuPerMS)
	}
	// The server ran sequentially well below saturation, so λ < µ and
	// the M/M/1 closed form must be reported and equal 1/(µ−λ).
	if st.LambdaPerMS < st.MuPerMS {
		want := 1 / (st.MuPerMS - st.LambdaPerMS)
		if math.Abs(st.PredictedSojournMS-want) > 1e-9*want {
			t.Fatalf("predicted sojourn %v, M/M/1 closed form %v", st.PredictedSojournMS, want)
		}
	}
	if st.Cache.Misses != 4 {
		t.Fatalf("cache misses %d, want 4 unique cells", st.Cache.Misses)
	}
}

// TestServerRejectsWrongJobProto pins job-protocol versioning: a client
// announcing a different WireJob version is refused with a version
// mismatch — in a binary WireResult like every server frame — before
// any job runs.
func TestServerRejectsWrongJobProto(t *testing.T) {
	addr, _, _ := startServer(t, Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := testbed.ReadHello(conn); err != nil {
		t.Fatal(err)
	}
	if err := testbed.WriteFrame(conn, testbed.WireJob{Proto: 99}); err != nil {
		t.Fatal(err)
	}
	var r testbed.WireResult
	if err := testbed.ReadBinaryFrame(conn, &r); err != nil {
		t.Fatal(err)
	}
	if r.Kind != testbed.ResultErr || !strings.Contains(r.Err, "job protocol") {
		t.Fatalf("want a job-protocol error frame, got %+v", r)
	}
}

// TestSubmitToFleetNodeFailsClearly pins the service marker: dialing an
// `xrperf serve` measurement node with submit fails with an error that
// says what the peer actually is, instead of a confusing frame error.
func TestSubmitToFleetNodeFailsClearly(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = testbed.ServeListener(ctx, ln, nil) }()
	var buf bytes.Buffer
	err = Submit(context.Background(), ln.Addr().String(), sweepJob("table", 300), &buf)
	if err == nil || !strings.Contains(err.Error(), "not a job server") {
		t.Fatalf("want a not-a-job-server error, got %v", err)
	}
}
