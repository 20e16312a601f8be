// Command xrperf drives the XR performance-analysis framework: it dumps
// the Table I/II catalogs, re-fits the regression models on the synthetic
// testbed, runs any single paper experiment, or regenerates the full
// evaluation (every table and figure of Section VIII).
//
// Usage:
//
//	xrperf devices                      Table I device catalog
//	xrperf cnns                         Table II CNN catalog
//	xrperf fit [-train N] [-test N]     regression fits vs paper R²
//	xrperf experiment <id>              one experiment (fig4a…fig5b, table1…)
//	xrperf all                          every experiment in paper order
//	xrperf analyze [-mode local|remote] analyze one scenario
//	xrperf sweep [-devices ...]         run an arbitrary scenario grid in parallel
//	xrperf population [-scenario S]     simulate a population of XR sessions
//	xrperf export [-rows N]             dump a synthetic resource dataset as CSV
//	xrperf report [-stream]             regenerate the full Markdown evaluation report
//	xrperf worker                       serve measurement requests over stdin/stdout
//	xrperf serve -listen <addr>         run a worker-fleet node answering over TCP
//	xrperf server -listen <addr>        run a long-lived job server (sweep as a service)
//	xrperf submit [-addr <addr>]        submit one job to a server, print its output
//
// The experiment, all, sweep, report, and population subcommands share
// one serializable job specification (internal/job.Spec): the suite
// flags -seed/-train/-test/-trials/-workers plus the backend flags
// -backend pool|proc|net, -procs, -nodes, and -cache-dir; every output
// is byte-identical for any backend at any -workers/-procs/node count.
// The population subcommand expands a named scenario (vehicular,
// multiplayer, coverage, offload) into cohorts of simulated XR sessions
// — thermal throttling, battery drain, mobility handoffs — shards them
// into session requests, and folds the per-frame distributions into
// mergeable quantile sketches, so a million-user sweep holds kilobytes,
// not traces.
// The proc backend shards measurements across `xrperf worker`
// subprocesses speaking a length-prefixed binary frame protocol (after a
// JSON hello); the net
// backend dispatches the same protocol over TCP to `xrperf serve` nodes,
// rejecting nodes whose handshake reports a different protocol or
// physics version and re-dispatching shards away from crashed nodes.
// Fleet membership comes from exactly one source: -nodes host:port,...
// (static), -nodes-file FILE (reloaded on SIGHUP), or -fleet-register
// ADDR (a coordinator that `xrperf serve -register` nodes dial to join
// and leave by disconnecting). Membership may change mid-run — joiners
// are admitted, leavers drain — and dispatch is capacity-weighted, with
// idle lanes stealing batches that sit unanswered on slow nodes;
// none of it changes output bytes, because measurements are pure
// functions of (request, seed). Every backend runs under a memoizing measurement
// cache, whose counters are reported on stderr. -cache-dir persists
// measured cells on disk, so a warm re-run of the same configuration —
// by any backend, or a fleet of dispatchers sharing the directory —
// dispatches zero backend measurements and still prints the same bytes.
//
// The server subcommand turns the same machinery into sweep-as-a-service:
// a long-lived process accepting job documents (internal/job JSON) from
// concurrent submit clients over the frame protocol, executing them on
// one shared measurement cache — overlapping client grids measure each
// unique cell once globally — and streaming each job's canonical bytes
// back as ordered prefixes complete. Admission control is a bounded
// queue with busy rejection; `xrperf submit -stats` reports queue depth,
// cache counters, and observed λ/µ checked against the internal/queue
// M/M/1 model. For any job, `xrperf submit` and the equivalent one-shot
// subcommand print byte-identical output.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/cnn"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/job"
	"repro/internal/pipeline"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/sweep"
	"repro/internal/testbed"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "xrperf:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return usageError()
	}
	switch args[0] {
	case "devices":
		return runDevices(out)
	case "cnns":
		return runCNNs(out)
	case "fit":
		return runFit(args[1:], out)
	case "experiment":
		return runExperiment(args[1:], out)
	case "all":
		return runAll(args[1:], out)
	case "analyze":
		return runAnalyze(args[1:], out)
	case "sweep":
		return runSweep(args[1:], out)
	case "population":
		return runPopulation(args[1:], out)
	case "export":
		return runExport(args[1:], out)
	case "report":
		return runReport(args[1:], out)
	case "worker":
		return runWorker(out)
	case "serve":
		return runServe(args[1:])
	case "server":
		return runServer(args[1:])
	case "submit":
		return runSubmit(args[1:], out)
	case "help", "-h", "--help":
		printUsage(out)
		return nil
	default:
		return usageError()
	}
}

func usageError() error {
	return fmt.Errorf("usage: xrperf {devices|cnns|fit|experiment <id>|all|analyze|sweep|population|export|report|worker|serve|server|submit} (ids: %s)",
		strings.Join(experiments.IDs(), ", "))
}

// runWorker serves the proc backend's wire protocol on stdin until EOF.
func runWorker(out io.Writer) error {
	return testbed.Serve(os.Stdin, out)
}

// runServe runs a worker-fleet node: accept dispatcher connections on
// -listen and answer measurement requests until SIGINT/SIGTERM. With
// -register the node also dials the named coordinator and registers its
// -advertise address (default: the bound listen address), joining an
// elastic fleet for as long as the registration connection lives. All
// operational output goes to stderr; stdout stays clean like every
// other subcommand's.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:7600", "TCP address to accept dispatcher connections on")
	register := fs.String("register", "", "dial this coordinator (host:port) and register as a fleet member until shutdown")
	advertise := fs.String("advertise", "", "address to register with the coordinator (default: the bound -listen address)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *advertise != "" && *register == "" {
		return fmt.Errorf("serve: -advertise is only meaningful with -register")
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	logf := func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, "xrperf serve: "+format+"\n", a...)
	}
	logf("listening on %s (protocol %d, physics %d)", ln.Addr(), testbed.ProtocolVersion, testbed.PhysicsVersion)
	if *register != "" {
		adv := *advertise
		if adv == "" {
			adv = ln.Addr().String()
		}
		go func() {
			if err := fleet.RegisterLoop(ctx, *register, adv, testbed.Hello, logf); err != nil && ctx.Err() == nil {
				logf("registration: %v", err)
			}
		}()
	}
	if err := testbed.ServeListener(ctx, ln, logf); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	logf("shutting down")
	return nil
}

// runServer runs the long-lived job server: accept submit clients on
// -listen, execute their jobs on one shared cached runner (whatever
// backend the server's own -backend flags select), and stream each
// job's canonical output back. Operational output goes to stderr;
// client streams carry the job bytes only.
func runServer(args []string) error {
	fs := flag.NewFlagSet("server", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:7700", "TCP address to accept submit clients on")
	maxActive := fs.Int("max-active", server.DefaultMaxActive, "maximum concurrently executing jobs")
	queueDepth := fs.Int("queue", server.DefaultQueueDepth, "admitted jobs that may wait beyond the active set; arrivals past it are rejected busy (-1 = no waiting room)")
	jobTimeout := fs.Duration("job-timeout", 0, "abort any job running longer than this (0 = no limit)")
	spec := job.Default()
	spec.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	runner, cleanup, err := spec.BuildRunner()
	if err != nil {
		return err
	}
	defer cleanup()
	logf := func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, "xrperf server: "+format+"\n", a...)
	}
	srv, err := server.New(server.Config{
		Runner:     runner,
		MaxActive:  *maxActive,
		QueueDepth: *queueDepth,
		JobTimeout: *jobTimeout,
		Logf:       logf,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	logf("listening on %s (job protocol %d, backend %s)", ln.Addr(), testbed.JobProtocolVersion, spec.Backend)
	if err := srv.Serve(ctx, ln); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	logf("shutting down")
	printStats(runner.Stats())
	return nil
}

// runSubmit sends one job to a running `xrperf server` and prints the
// streamed output — byte-identical to the equivalent one-shot
// subcommand. The job comes from -job FILE (a job JSON document, "-"
// for stdin) or is assembled from the same flags the one-shot
// subcommands take.
func runSubmit(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("submit", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7700", "job server address")
	jobFile := fs.String("job", "", "job document (JSON) to submit; \"-\" reads stdin; empty builds the job from flags")
	kind := fs.String("kind", "sweep", "job kind when building from flags: sweep, report, or population")
	format := fs.String("format", "table", "sweep output format: table or csv")
	stats := fs.Bool("stats", false, "print the server's introspection snapshot (JSON) instead of submitting a job")
	gridOf := registerGridFlags(fs)
	pop := registerPopulationFlags(fs)
	spec := job.Default()
	spec.RegisterFlags(fs)
	spec.RegisterSuiteFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *stats {
		st, err := server.QueryStats(ctx, *addr)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(st)
	}
	var jb job.Job
	switch {
	case *jobFile != "":
		data, err := readJobFile(*jobFile)
		if err != nil {
			return err
		}
		if jb, err = job.Decode(data); err != nil {
			return err
		}
	default:
		jb = job.Job{Kind: job.Kind(*kind), Spec: spec, Format: *format}
		switch jb.Kind {
		case job.KindSweep:
			grid, err := gridOf()
			if err != nil {
				return err
			}
			jb.Grid = &grid
		case job.KindPopulation:
			jb.Population = pop
		}
	}
	// Validate client-side first: a bad job fails here with the exact
	// one-shot CLI error text, without needing the server round trip.
	if err := jb.Validate(); err != nil {
		return err
	}
	return server.Submit(ctx, *addr, jb, out)
}

// readJobFile loads a job document from a path or stdin ("-").
func readJobFile(path string) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}

func printUsage(out io.Writer) {
	fmt.Fprintln(out, "xrperf — XR performance-analysis framework (ICDCS 2024 reproduction)")
	fmt.Fprintln(out, "  devices                      Table I device catalog")
	fmt.Fprintln(out, "  cnns                         Table II CNN catalog")
	fmt.Fprintln(out, "  fit [-train N] [-test N]     fit regressions, report R² vs paper")
	fmt.Fprintln(out, "  experiment <id> [flags]      run one experiment:", strings.Join(experiments.IDs(), " "))
	fmt.Fprintln(out, "  all [flags]                  run every experiment in paper order")
	fmt.Fprintln(out, "  analyze [-device XRn] [-mode local|remote] [-size px2] [-freq GHz]")
	fmt.Fprintln(out, "  sweep [-devices XR1,..|all] [-modes local,remote] [-cnns M1,..]")
	fmt.Fprintln(out, "        [-sizes 300,500,..] [-freqs 1,2,..] [-workers N]")
	fmt.Fprintln(out, "        [-stream] [-format table|csv]")
	fmt.Fprintln(out, "                               run a scenario grid on the parallel sweep engine;")
	fmt.Fprintln(out, "                               -stream emits rows as grid prefixes complete")
	fmt.Fprintln(out, "  population [-scenario S] [-users N] [-frames N] [-shard N] [backend flags]")
	fmt.Fprintln(out, "                               simulate a population of XR sessions (thermal,")
	fmt.Fprintln(out, "                               battery, mobility) as cohorts on any backend;")
	fmt.Fprintln(out, "                               scenarios:", strings.Join(scenario.Names(), " "))
	fmt.Fprintln(out, "  export [-rows N] [-kind K]   dump a synthetic dataset as CSV")
	fmt.Fprintln(out, "  report [-stream] [flags]     regenerate the full Markdown evaluation report;")
	fmt.Fprintln(out, "                               -stream emits each section as soon as it completes")
	fmt.Fprintln(out, "  worker                       serve measurement requests over stdin/stdout")
	fmt.Fprintln(out, "                               (spawned by -backend proc; length-prefixed frames:")
	fmt.Fprintln(out, "                               a JSON handshake, then binary batches)")
	fmt.Fprintln(out, "  serve [-listen ADDR] [-register ADDR [-advertise ADDR]]")
	fmt.Fprintln(out, "                               run a worker-fleet node: answer measurement")
	fmt.Fprintln(out, "                               requests over TCP for -backend net dispatchers")
	fmt.Fprintln(out, "                               (handshake carries protocol + physics versions;")
	fmt.Fprintln(out, "                               -register dials a -fleet-register coordinator")
	fmt.Fprintln(out, "                               and joins its fleet until shutdown)")
	fmt.Fprintln(out, "  server [-listen ADDR] [-max-active N] [-queue N] [-job-timeout D]")
	fmt.Fprintln(out, "         [backend flags]       run a long-lived job server: execute submitted")
	fmt.Fprintln(out, "                               jobs on one shared measurement cache (overlapping")
	fmt.Fprintln(out, "                               client grids measure each unique cell once) and")
	fmt.Fprintln(out, "                               stream canonical output back; bounded queue with")
	fmt.Fprintln(out, "                               busy rejection when full")
	fmt.Fprintln(out, "  submit [-addr ADDR] [-job FILE|-] [-kind sweep|report|population] [-stats]")
	fmt.Fprintln(out, "         [sweep/suite flags]   submit one job to a server and print the stream —")
	fmt.Fprintln(out, "                               byte-identical to the one-shot subcommand; -stats")
	fmt.Fprintln(out, "                               prints the server's queue/cache/λµ snapshot")
	fmt.Fprintln(out, "  Suite flags (experiment/all/sweep/report; population takes the backend")
	fmt.Fprintln(out, "                               subset): -seed N -train N -test N")
	fmt.Fprintln(out, "                               -trials N -workers N -backend pool|proc|net")
	fmt.Fprintln(out, "                               -procs N -nodes host:port,... -cache-dir DIR")
	fmt.Fprintln(out, "                               -batch N -pipeline N")
	fmt.Fprintln(out, "                               (0 = GOMAXPROCS; output is byte-identical for any")
	fmt.Fprintln(out, "                               backend at any parallelism; -cache-dir persists")
	fmt.Fprintln(out, "                               measurements so warm re-runs dispatch nothing;")
	fmt.Fprintln(out, "                               -batch/-pipeline tune the proc/net wire batching")
	fmt.Fprintln(out, "                               and window depth without changing output)")
	fmt.Fprintln(out, "  Fleet flags (-backend net; exactly one membership source):")
	fmt.Fprintln(out, "                               -nodes host:port,... (static inline fleet)")
	fmt.Fprintln(out, "                               -nodes-file FILE (one address per line, # comments,")
	fmt.Fprintln(out, "                               reloaded on SIGHUP) | -fleet-register ADDR (listen")
	fmt.Fprintln(out, "                               for `xrperf serve -register` nodes dialing home);")
	fmt.Fprintln(out, "                               idle lanes steal batches stuck on slow nodes;")
	fmt.Fprintln(out, "                               membership and stealing never change output bytes")
}

func runDevices(out io.Writer) error {
	s := &experiments.Suite{}
	t1, err := s.Table1(context.Background())
	if err != nil {
		return err
	}
	fmt.Fprint(out, t1.Render())
	return nil
}

func runCNNs(out io.Writer) error {
	// The catalog needs a fitted complexity model; a small fit suffices.
	suite, err := experiments.NewSuite(1, 2000, 500)
	if err != nil {
		return err
	}
	t2, err := suite.Table2(context.Background())
	if err != nil {
		return err
	}
	fmt.Fprint(out, t2.Render())
	return nil
}

// buildSuite parses the shared job flags and assembles the suite with its
// measurement backend via the serializable job.Spec; cleanup reaps
// backend resources (the proc backend's worker subprocesses) and must run
// after the command's last measurement.
func buildSuite(fs *flag.FlagSet, args []string) (suite *experiments.Suite, cleanup func(), err error) {
	spec := job.Default()
	spec.RegisterFlags(fs)
	spec.RegisterSuiteFlags(fs)
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	return spec.BuildSuite()
}

// printCacheStats reports the measurement cache's counters on stderr —
// never stdout, which stays byte-identical across backends and
// parallelism.
func printCacheStats(suite *experiments.Suite) {
	if st, ok := suite.CacheStats(); ok {
		printStats(st)
	}
}

func printStats(st sweep.CacheStats) {
	if st.Misses+st.Hits+st.DiskHits == 0 {
		return
	}
	line := fmt.Sprintf("xrperf: measurement cache: %d unique cells measured, %d served from cache",
		st.Misses, st.Hits+st.DiskHits)
	if st.DiskHits > 0 {
		line += fmt.Sprintf(" (%d loaded from disk)", st.DiskHits)
	}
	fmt.Fprintln(os.Stderr, line)
}

// runPopulation expands a named scenario into cohorts of simulated users
// and sweeps their sessions on the selected backend, reporting merged
// latency/energy distributions per cohort. Stdout carries only the report
// — byte-identical for any backend, worker count, or shard size — so CI
// can diff backends directly. The flags assemble a population job
// document, the exact structure `xrperf submit -kind population` ships
// to a server, and both render through job.Run — so the two front doors
// cannot drift.
func runPopulation(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("population", flag.ContinueOnError)
	pop := registerPopulationFlags(fs)
	spec := job.Default()
	spec.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	jb := job.Job{Kind: job.KindPopulation, Spec: spec, Population: pop}
	if err := jb.Validate(); err != nil {
		return err
	}
	runner, cleanup, err := spec.BuildRunner()
	if err != nil {
		return err
	}
	defer cleanup()
	suite, err := jb.SuiteFor(runner)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := jb.Run(ctx, suite, out); err != nil {
		return err
	}
	printStats(runner.Stats())
	return nil
}

// registerPopulationFlags registers the population workload flags on fs,
// bound to the returned value — the same structure a submit client ships
// to a server.
func registerPopulationFlags(fs *flag.FlagSet) *job.Population {
	pop := &job.Population{}
	fs.StringVar(&pop.Scenario, "scenario", "vehicular", "scenario generator: "+strings.Join(scenario.Names(), ", "))
	fs.IntVar(&pop.Users, "users", 10000, "total simulated users, split across the scenario's cohorts")
	fs.IntVar(&pop.Frames, "frames", 120, "frames per user session")
	fs.IntVar(&pop.Shard, "shard", sweep.DefaultShardUsers, "sessions per request shard (output identical for any value)")
	return pop
}

func runFit(args []string, out io.Writer) error {
	// fit registers only the flags it uses: it neither measures
	// (-trials) nor sweeps (-workers), and silently accepting them would
	// suggest otherwise.
	fs := flag.NewFlagSet("fit", flag.ContinueOnError)
	paper := fs.Bool("paper-scale", false, "use the paper's 119,465/36,083 dataset sizes")
	seed := fs.Int64("seed", 42, "bench RNG seed")
	train := fs.Int("train", experiments.DefaultTrainRows, "training dataset rows")
	test := fs.Int("test", experiments.DefaultTestRows, "test dataset rows")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tr, te := *train, *test
	if *paper {
		tr, te = testbed.PaperTrainRows, testbed.PaperTestRows
	}
	suite, err := experiments.NewSuite(*seed, tr, te)
	if err != nil {
		return err
	}
	res, err := suite.FitSummary(context.Background())
	if err != nil {
		return err
	}
	fmt.Fprint(out, res.Render())
	return nil
}

func runExperiment(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("experiment id required (one of: %s)", strings.Join(experiments.IDs(), ", "))
	}
	id := args[0]
	fs := flag.NewFlagSet("experiment", flag.ContinueOnError)
	suite, cleanup, err := buildSuite(fs, args[1:])
	if err != nil {
		return err
	}
	defer cleanup()
	res, err := suite.Run(id)
	if err != nil {
		return err
	}
	fmt.Fprint(out, res.Render())
	printCacheStats(suite)
	return nil
}

func runAll(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("all", flag.ContinueOnError)
	suite, cleanup, err := buildSuite(fs, args)
	if err != nil {
		return err
	}
	defer cleanup()
	results, err := suite.RunAll()
	if err != nil {
		return err
	}
	for _, r := range results {
		fmt.Fprintln(out, r.Render())
	}
	printCacheStats(suite)
	return nil
}

func runReport(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	stream := fs.Bool("stream", false, "write each section as soon as it completes instead of buffering the whole report")
	spec := job.Default()
	spec.RegisterFlags(fs)
	spec.RegisterSuiteFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	jb := job.Job{Kind: job.KindReport, Spec: spec, Stream: *stream}
	suite, cleanup, err := spec.BuildSuite()
	if err != nil {
		return err
	}
	defer cleanup()
	defer printCacheStats(suite)
	return jb.Run(context.Background(), suite, out)
}

func runAnalyze(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	devName := fs.String("device", "XR1", "device name from Table I")
	mode := fs.String("mode", "local", "inference mode: local or remote")
	size := fs.Float64("size", 500, "frame size (pixel² unit, 300-700)")
	freq := fs.Float64("freq", 0, "CPU frequency in GHz (0 = device max)")
	fitted := fs.Bool("fitted", false, "use re-fitted models instead of paper coefficients")
	if err := fs.Parse(args); err != nil {
		return err
	}

	dev, err := device.ByName(*devName)
	if err != nil {
		return err
	}
	var m pipeline.InferenceMode
	switch *mode {
	case "local":
		m = pipeline.ModeLocal
	case "remote":
		m = pipeline.ModeRemote
	default:
		return fmt.Errorf("unknown mode %q (local or remote)", *mode)
	}
	opts := []pipeline.Option{pipeline.WithMode(m), pipeline.WithFrameSize(*size)}
	if *freq > 0 {
		opts = append(opts, pipeline.WithCPUFreq(*freq))
	}
	sc, err := pipeline.NewScenario(dev, opts...)
	if err != nil {
		return err
	}

	fw := core.NewWithPaperCoefficients()
	if *fitted {
		fw, _, err = core.NewFitted(42, experiments.DefaultTrainRows, experiments.DefaultTestRows)
		if err != nil {
			return err
		}
	}
	rep, err := fw.Analyze(sc)
	if err != nil {
		return err
	}
	fmt.Fprint(out, rep.Render())
	return nil
}

// registerGridFlags registers the sweep grid flags on fs and returns a
// builder that translates their parsed values into the serializable
// job.Grid — the same structure a submit client ships to a server.
func registerGridFlags(fs *flag.FlagSet) func() (job.Grid, error) {
	devices := fs.String("devices", "XR1", "comma-separated Table I devices, or \"all\"")
	modes := fs.String("modes", "local,remote", "comma-separated inference modes")
	cnns := fs.String("cnns", "", "comma-separated Table II CNNs (empty = pipeline defaults)")
	sizes := fs.String("sizes", "300,400,500,600,700", "comma-separated frame sizes (pixel² unit)")
	freqs := fs.String("freqs", "0", "comma-separated CPU clocks in GHz (0 = device max, clamped)")
	return func() (job.Grid, error) {
		return job.ParseGrid(*devices, *modes, *cnns, *sizes, *freqs)
	}
}

func runSweep(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	gridOf := registerGridFlags(fs)
	stream := fs.Bool("stream", false, "write each grid row as soon as its prefix completes instead of buffering the table")
	format := fs.String("format", "table", "output format: table or csv")
	spec := job.Default()
	spec.RegisterFlags(fs)
	spec.RegisterSuiteFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	grid, err := gridOf()
	if err != nil {
		return err
	}
	jb := job.Job{Kind: job.KindSweep, Spec: spec, Grid: &grid, Format: *format, Stream: *stream}
	if err := jb.Validate(); err != nil {
		return err
	}
	suite, cleanup, err := spec.BuildSuite()
	if err != nil {
		return err
	}
	defer cleanup()
	defer printCacheStats(suite)
	return jb.Run(context.Background(), suite, out)
}

func runExport(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("export", flag.ContinueOnError)
	rows := fs.Int("rows", 1000, "rows to export")
	seed := fs.Int64("seed", 42, "bench RNG seed")
	kind := fs.String("kind", "resource", "dataset kind: resource, power, encoder, or cnn")
	if err := fs.Parse(args); err != nil {
		return err
	}
	bench := testbed.NewBench(*seed)
	tbl, err := exportTable(bench, *kind, *rows)
	if err != nil {
		return err
	}
	return tbl.WriteCSV(out)
}

// exportTable materializes one synthetic measurement dataset of the given
// kind, matching the feature layouts the regressions are fitted on.
func exportTable(bench *testbed.Bench, kind string, rows int) (*dataset.Table, error) {
	if rows <= 0 {
		return nil, fmt.Errorf("rows must be positive, have %d", rows)
	}
	devs := device.TrainDevices()
	switch kind {
	case "resource", "power":
		target := "resource"
		measure := bench.Physics.TrueResource
		if kind == "power" {
			target = "power_w"
			measure = bench.Physics.TruePower
		}
		tbl, err := dataset.New("fc_ghz", "fg_ghz", "cpu_share", target)
		if err != nil {
			return nil, err
		}
		for i := 0; i < rows; i++ {
			d := devs[i%len(devs)]
			fc := 0.8 + (d.CPUGHz-0.8)*float64(i%97)/97
			fg := 0.4 + (d.GPUGHz-0.4)*float64(i%89)/89
			wc := float64(i%101) / 101
			v, err := measure(d.Name, fc, fg, wc)
			if err != nil {
				return nil, err
			}
			if err := tbl.Append(fc, fg, wc, v); err != nil {
				return nil, err
			}
		}
		return tbl, nil
	case "encoder":
		tbl, err := dataset.New("iframe", "bframe", "bitrate_mbps",
			"frame_px2", "fps", "quant", "work")
		if err != nil {
			return nil, err
		}
		for i := 0; i < rows; i++ {
			p := codec.EncodingParams{
				IFrameInterval: 10 + float64(i%50),
				BFrameInterval: float64(i % 5),
				BitrateMbps:    1 + float64(i%9),
				FrameSizePx2:   300 + float64(i%400),
				FPS:            15 + float64(i%45),
				Quantization:   10 + float64(i%35),
			}
			w, err := bench.Physics.TrueEncoderWork(p)
			if err != nil {
				return nil, err
			}
			if err := tbl.Append(p.IFrameInterval, p.BFrameInterval,
				p.BitrateMbps, p.FrameSizePx2, p.FPS, p.Quantization, w); err != nil {
				return nil, err
			}
		}
		return tbl, nil
	case "cnn":
		tbl, err := dataset.New("depth", "size_mb", "depth_scale", "complexity")
		if err != nil {
			return nil, err
		}
		catalog := cnn.Catalog()
		for i := 0; i < rows; i++ {
			m := catalog[i%len(catalog)]
			c, err := bench.Physics.TrueCNNComplexity(m.Depth, m.SizeMB, m.DepthScale)
			if err != nil {
				return nil, err
			}
			if err := tbl.Append(float64(m.Depth), m.SizeMB, m.DepthScale, c); err != nil {
				return nil, err
			}
		}
		return tbl, nil
	default:
		return nil, fmt.Errorf("unknown dataset kind %q (resource, power, encoder, cnn)", kind)
	}
}
