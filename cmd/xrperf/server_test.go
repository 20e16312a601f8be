package main

import (
	"bytes"
	"context"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/sweep"
	"repro/internal/sweep/sweeptest"
)

// startJobServer runs an in-process job server on the pool backend for
// the test's lifetime and returns its address. The CLI-facing pieces —
// the submit subcommand, flag parsing, error texts — still go through
// run(); only the server loop is hosted in-process (the CI fleet job
// exercises the real `xrperf server` binary end to end).
func startJobServer(t *testing.T) string {
	t.Helper()
	runner := sweep.NewCachedRunner(&sweep.PoolRunner{Workers: 2})
	srv, err := server.New(server.Config{Runner: runner})
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
			t.Error("job server did not shut down")
		}
	})
	return ln.Addr().String()
}

// TestSubmitMatchesOneShotCLI pins the tentpole contract at the CLI
// layer: `xrperf submit` with the same flags prints byte-identically to
// the one-shot subcommand, for table and CSV sweeps and the report.
func TestSubmitMatchesOneShotCLI(t *testing.T) {
	addr := startJobServer(t)
	cases := [][]string{
		{"-devices", "XR1", "-sizes", "300,500"},
		{"-devices", "XR1", "-sizes", "300,500", "-format", "csv"},
	}
	for _, grid := range cases {
		oneShot := runCLI(t, append(append([]string{"sweep"}, grid...), fastFlags...)...)
		submitted := runCLI(t, append(append([]string{"submit", "-addr", addr}, grid...), fastFlags...)...)
		if submitted != oneShot {
			t.Fatalf("submit %v diverges from one-shot sweep:\nsubmit %q\nsweep  %q", grid, submitted, oneShot)
		}
	}
	oneShot := runCLI(t, append([]string{"report"}, fastFlags...)...)
	submitted := runCLI(t, append([]string{"submit", "-addr", addr, "-kind", "report"}, fastFlags...)...)
	if submitted != oneShot {
		t.Fatal("submit -kind report diverges from one-shot report")
	}
}

// TestSubmitJobFile pins the jobs-as-data path: a job document read from
// a file (and from stdin via "-") submits and prints the same bytes as
// the flag-built equivalent.
func TestSubmitJobFile(t *testing.T) {
	addr := startJobServer(t)
	doc := `{
		"kind": "sweep",
		"spec": {"seed": 42, "train_rows": 2000, "test_rows": 500, "trials": 5},
		"grid": {"devices": ["XR1"], "modes": ["local", "remote"], "sizes": [300, 500]},
		"format": "csv"
	}`
	file := filepath.Join(t.TempDir(), "job.json")
	if err := os.WriteFile(file, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	fromFile := runCLI(t, "submit", "-addr", addr, "-job", file)
	fromFlags := runCLI(t, append([]string{"submit", "-addr", addr,
		"-devices", "XR1", "-sizes", "300,500", "-format", "csv"}, fastFlags...)...)
	if fromFile != fromFlags {
		t.Fatalf("-job file diverges from flags:\nfile  %q\nflags %q", fromFile, fromFlags)
	}
	if !strings.Contains(fromFile, "device,") {
		t.Fatalf("unexpected CSV output: %q", fromFile)
	}
}

// TestSubmitErrorParity pins satellite 4 at the CLI layer: for the same
// invalid spec, `xrperf submit` and the one-shot subcommand fail with
// exactly the same error text.
func TestSubmitErrorParity(t *testing.T) {
	addr := startJobServer(t)
	cases := [][]string{
		{"-backend", "teleport"},
		{"-backend", "net"}, // net without nodes
		{"-nodes", "x:1"},   // nodes without net
		{"-workers", "-1"},
		{"-trials", "-3"},
		{"-format", "xml"},
		{"-modes", "sideways"},
		{"-sizes", "tall"},
	}
	var sink bytes.Buffer
	for _, extra := range cases {
		oneShotErr := run(append([]string{"sweep"}, extra...), &sink)
		submitErr := run(append([]string{"submit", "-addr", addr}, extra...), &sink)
		if oneShotErr == nil || submitErr == nil {
			t.Fatalf("%v: expected both doors to reject (sweep=%v submit=%v)", extra, oneShotErr, submitErr)
		}
		if oneShotErr.Error() != submitErr.Error() {
			t.Fatalf("%v: error text diverges between doors:\nsweep  %q\nsubmit %q", extra, oneShotErr, submitErr)
		}
	}
}

// TestSubmitStats checks the introspection op end to end through the
// CLI: the snapshot is valid JSON carrying the queue and cache counters.
func TestSubmitStats(t *testing.T) {
	addr := startJobServer(t)
	runCLI(t, append([]string{"submit", "-addr", addr, "-devices", "XR1", "-sizes", "300"}, fastFlags...)...)
	out := runCLI(t, "submit", "-addr", addr, "-stats")
	for _, want := range []string{`"arrivals": 1`, `"completed": 1`, `"cache"`, `"lambda_per_ms"`, `"predicted_sojourn_ms"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("stats output missing %q:\n%s", want, out)
		}
	}
}

// TestSubmitToFleetNode pins the clear-error path when a submit client
// dials an `xrperf serve` measurement node instead of a job server.
func TestSubmitToFleetNode(t *testing.T) {
	nodeAddr := startServeNodes(t, 1)
	var sink bytes.Buffer
	err := run([]string{"submit", "-addr", nodeAddr, "-devices", "XR1", "-sizes", "300"}, &sink)
	if err == nil || !strings.Contains(err.Error(), "not a job server") {
		t.Fatalf("want a not-a-job-server error, got %v", err)
	}
}

// TestServerFlagErrors checks the server subcommand rejects bad
// configuration with the shared spec error texts.
func TestServerFlagErrors(t *testing.T) {
	var sink bytes.Buffer
	if err := run([]string{"server", "-backend", "teleport"}, &sink); err == nil ||
		!strings.Contains(err.Error(), "-backend") {
		t.Fatalf("bad backend: %v", err)
	}
	if err := run([]string{"server", "-backend", "net"}, &sink); err == nil ||
		!strings.Contains(err.Error(), "-nodes") {
		t.Fatalf("net without nodes: %v", err)
	}
	if err := run([]string{"server", "-listen", "not an address"}, &sink); err == nil {
		t.Fatal("unusable listen address must error")
	}
}

// TestReportByteIdenticalUnderChaos pins the chaos satellite at the
// report level: the full Markdown report generated over a net fleet
// whose first node dies repeatedly mid-stream is byte-identical to the
// pool backend's. Every connection to that node is killed when its
// third frame arrives (the hello and one batch result pass; the second
// result is dropped), with no limit on the number of deaths.
func TestReportByteIdenticalUnderChaos(t *testing.T) {
	reportUnderChaos(t, sweeptest.ChaosConfig{CrashAfterFrames: 3, MaxCrashes: -1})
}

// TestReportByteIdenticalUnderBoundedChaos is the bounded companion of
// TestReportByteIdenticalUnderChaos: the first three connections to the
// proxied node are killed when their second frame arrives, so the hello
// passes and the first batch result is dropped; later connections pass
// through untouched. The first result routed through the proxy always
// triggers a crash, which the unlimited case cannot promise: there a
// connection must carry two results before it dies. Three deaths stay
// inside each batch's dispatch budget (two attempts per node), so the
// report must come out whole and byte-identical.
func TestReportByteIdenticalUnderBoundedChaos(t *testing.T) {
	reportUnderChaos(t, sweeptest.ChaosConfig{CrashAfterFrames: 2, MaxCrashes: 3})
}

// reportUnderChaos generates the report over a two-node net fleet whose
// first node sits behind a chaos proxy configured by cfg, and checks it
// against the pool backend's bytes and that the proxy injected a crash.
// The second node's answers are withheld until that first crash, so the
// faulty node carries work before the healthy one can drain the report
// and the fault fires on every run.
func reportUnderChaos(t *testing.T, cfg sweeptest.ChaosConfig) {
	t.Helper()
	want := runCLI(t, append([]string{"report", "-workers", "2"}, fastFlags...)...)
	proxy, err := sweeptest.NewChaosProxy(startServeNodes(t, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	held, err := sweeptest.NewChaosProxy(startServeNodes(t, 1), sweeptest.ChaosConfig{Hold: proxy.Crashed()})
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	nodes := proxy.Addr() + "," + held.Addr()
	got := runCLI(t, append([]string{"report", "-backend", "net", "-nodes", nodes, "-workers", "2"}, fastFlags...)...)
	if got != want {
		t.Fatal("report bytes diverge under injected node death")
	}
	if proxy.Crashes() == 0 {
		t.Fatal("chaos proxy injected no crashes; the test exercised nothing")
	}
}
