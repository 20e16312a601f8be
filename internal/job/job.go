// Package job defines the serializable execution-environment
// specification shared by every xrperf subcommand that dispatches backend
// work: which backend runs the requests (in-process pool, worker
// subprocesses, a TCP node fleet), at what parallelism, under which seed
// and dataset sizes, and whether measurements persist on disk. A Spec is
// plain data — JSON round-trippable — so the same value that today comes
// from command-line flags can tomorrow arrive in a server request or a
// job file and build the identical runner; and because every subcommand
// funnels through BuildRunner/BuildSuite, backend wiring cannot drift
// between them.
package job

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/sweep"
	"repro/internal/testbed"
)

// Spec describes one job's execution environment.
type Spec struct {
	// Backend selects the measurement backend: "pool" (in-process,
	// default), "proc" (worker subprocesses), or "net" (TCP node fleet).
	Backend string `json:"backend,omitempty"`
	// Procs is the proc backend's subprocess count (0 = GOMAXPROCS).
	Procs int `json:"procs,omitempty"`
	// Nodes lists the net backend's serve-node addresses. It is sugar
	// for Fleet.Nodes — the inline membership source — kept as a flat
	// field so existing -nodes flags and job documents keep working.
	Nodes []string `json:"nodes,omitempty"`
	// Fleet describes the net backend's worker fleet beyond an inline
	// node list: a nodes file reloaded on SIGHUP, or a registration
	// coordinator that `xrperf serve -register` nodes dial into. Exactly
	// one membership source — Nodes (either spelling), NodesFile, or
	// Register — must be set.
	Fleet *fleet.Spec `json:"fleet,omitempty"`
	// Workers sizes the dispatcher-side worker pool (0 = GOMAXPROCS;
	// output is byte-identical for any value).
	Workers int `json:"workers,omitempty"`
	// Seed is the bench RNG seed.
	Seed int64 `json:"seed"`
	// TrainRows/TestRows are the regression dataset sizes.
	TrainRows int `json:"train_rows,omitempty"`
	TestRows  int `json:"test_rows,omitempty"`
	// Trials is the ground-truth trial count per measured point.
	Trials int `json:"trials,omitempty"`
	// CacheDir persists measured cells on disk (empty = memory only).
	CacheDir string `json:"cache_dir,omitempty"`
	// Batch caps requests per wire frame on the dispatching backends
	// (0 = sweep.DefaultBatch; output is byte-identical for any value).
	Batch int `json:"batch,omitempty"`
	// Pipeline is the window of outstanding batches per worker or
	// connection (0 = sweep.DefaultPipeline; output is byte-identical
	// for any value).
	Pipeline int `json:"pipeline,omitempty"`
}

// Default returns the specification every subcommand starts from.
func Default() Spec {
	return Spec{
		Backend:   "pool",
		Seed:      42,
		TrainRows: experiments.DefaultTrainRows,
		TestRows:  experiments.DefaultTestRows,
		Trials:    experiments.DefaultTrials,
	}
}

// RegisterFlags registers the backend/dispatch flags
// (-backend/-procs/-nodes/-workers/-seed/-cache-dir) on fs, bound to s.
func (s *Spec) RegisterFlags(fs *flag.FlagSet) {
	fs.Int64Var(&s.Seed, "seed", s.Seed, "bench RNG seed")
	fs.IntVar(&s.Workers, "workers", s.Workers, "sweep worker pool size (0 = GOMAXPROCS; output identical for any value)")
	fs.StringVar(&s.Backend, "backend", s.Backend, "measurement backend: pool (in-process), proc (xrperf worker subprocesses), or net (xrperf serve nodes)")
	fs.IntVar(&s.Procs, "procs", s.Procs, "proc backend: worker subprocess count (0 = GOMAXPROCS)")
	fs.Func("nodes", "net backend: comma-separated serve-node addresses (host:port,...)", func(v string) error {
		s.Nodes = nil
		for _, part := range strings.Split(v, ",") {
			if part = strings.TrimSpace(part); part != "" {
				s.Nodes = append(s.Nodes, part)
			}
		}
		return nil
	})
	fs.Func("nodes-file", "net backend: file of serve-node addresses (one per line, # comments), reloaded on SIGHUP", func(v string) error {
		s.ensureFleet().NodesFile = v
		return nil
	})
	fs.Func("fleet-register", "net backend: coordinator listen address; `xrperf serve -register` nodes dial it to join the fleet and leave by disconnecting", func(v string) error {
		s.ensureFleet().Register = v
		return nil
	})
	fs.StringVar(&s.CacheDir, "cache-dir", s.CacheDir, "persist measured cells on disk so warm re-runs dispatch nothing (empty = in-memory cache only)")
	fs.IntVar(&s.Batch, "batch", s.Batch, "proc/net backends: requests per wire frame (0 = auto; output identical for any value)")
	fs.IntVar(&s.Pipeline, "pipeline", s.Pipeline, "proc/net backends: outstanding batches per worker (0 = auto; output identical for any value)")
}

// RegisterSuiteFlags registers the dataset/measurement flags
// (-train/-test/-trials) used by suite-building subcommands.
func (s *Spec) RegisterSuiteFlags(fs *flag.FlagSet) {
	fs.IntVar(&s.TrainRows, "train", s.TrainRows, "training dataset rows")
	fs.IntVar(&s.TestRows, "test", s.TestRows, "test dataset rows")
	fs.IntVar(&s.Trials, "trials", s.Trials, "ground-truth trials per point")
}

// backend normalizes the backend name ("" means pool).
func (s Spec) backend() string {
	if s.Backend == "" {
		return "pool"
	}
	return s.Backend
}

// ensureFleet returns the fleet spec, allocating it on first use — the
// fleet flags share one lazily created value so a spec that never uses
// them serializes without a "fleet" key.
func (s *Spec) ensureFleet() *fleet.Spec {
	if s.Fleet == nil {
		s.Fleet = &fleet.Spec{}
	}
	return s.Fleet
}

// fleetSpec folds the -nodes sugar into the effective fleet description:
// an inline node list is one membership source whether it arrived as the
// flat nodes field or inside the fleet document.
func (s Spec) fleetSpec() fleet.Spec {
	var fl fleet.Spec
	if s.Fleet != nil {
		fl = *s.Fleet
	}
	if len(s.Nodes) > 0 {
		fl.Nodes = append(append([]string(nil), s.Nodes...), fl.Nodes...)
	}
	return fl
}

// Validate checks the specification. Zero means "use the default" for
// every count (workers, procs, trials, rows), so only negatives — which
// no default resolves — are rejected, plus trial and row counts above
// the testbed's work caps; the backend/fleet combination must
// be coherent both ways (net needs exactly one membership source, fleet
// options need net).
func (s Spec) Validate() error {
	if s.Workers < 0 {
		return fmt.Errorf("job: -workers must be >= 0, have %d", s.Workers)
	}
	if s.Procs < 0 {
		return fmt.Errorf("job: -procs must be >= 0, have %d", s.Procs)
	}
	if s.Trials < 0 {
		return fmt.Errorf("job: -trials must be >= 0, have %d", s.Trials)
	}
	if s.Trials > testbed.MaxTrials {
		return fmt.Errorf("job: -trials must be <= %d, have %d", testbed.MaxTrials, s.Trials)
	}
	if s.TrainRows < 0 {
		return fmt.Errorf("job: -train must be >= 0, have %d", s.TrainRows)
	}
	if s.TrainRows > testbed.MaxTrainRows {
		return fmt.Errorf("job: -train must be <= %d, have %d", testbed.MaxTrainRows, s.TrainRows)
	}
	if s.TestRows < 0 {
		return fmt.Errorf("job: -test must be >= 0, have %d", s.TestRows)
	}
	if s.TestRows > testbed.MaxTestRows {
		return fmt.Errorf("job: -test must be <= %d, have %d", testbed.MaxTestRows, s.TestRows)
	}
	if s.Batch < 0 {
		return fmt.Errorf("job: -batch must be >= 0, have %d", s.Batch)
	}
	if s.Pipeline < 0 {
		return fmt.Errorf("job: -pipeline must be >= 0, have %d", s.Pipeline)
	}
	switch s.backend() {
	case "pool", "proc":
		if len(s.Nodes) > 0 {
			return fmt.Errorf("job: -nodes is only meaningful with -backend net, have -backend %s", s.backend())
		}
		if s.Fleet != nil && !s.Fleet.Empty() {
			return fmt.Errorf("job: fleet options (-nodes-file, -fleet-register) are only meaningful with -backend net, have -backend %s", s.backend())
		}
	case "net":
		fl := s.fleetSpec()
		if fl.SourceCount() == 0 {
			return fmt.Errorf("job: -backend net requires a fleet: -nodes (host:port,...), -nodes-file, or -fleet-register")
		}
		if fl.SourceCount() > 1 {
			return fmt.Errorf("job: -nodes, -nodes-file, and -fleet-register are mutually exclusive; set exactly one membership source")
		}
	default:
		return fmt.Errorf("job: unknown -backend %q (pool, proc, or net)", s.Backend)
	}
	return nil
}

// openDiskCache opens the persistent measurement store for CacheDir. An
// unusable directory degrades to the in-memory cache with a warning on
// stderr instead of failing the run: a broken cache must never block an
// evaluation it can only accelerate.
func (s Spec) openDiskCache() *sweep.DiskCache {
	if s.CacheDir == "" {
		return nil
	}
	disk, err := sweep.OpenDiskCache(s.CacheDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xrperf: %v; continuing with the in-memory cache only\n", err)
		return nil
	}
	return disk
}

// BuildRunner assembles the spec's measurement runner: the selected
// backend wrapped in the memoizing cache (persistent when CacheDir is
// usable). cleanup reaps backend resources — worker subprocesses, node
// connections — and must run after the job's last measurement.
func (s Spec) BuildRunner() (runner *sweep.CachedRunner, cleanup func(), err error) {
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	cleanup = func() {}
	var backend sweep.Runner
	switch s.backend() {
	case "pool":
		backend = &sweep.PoolRunner{Workers: s.Workers}
	case "proc":
		pr := &sweep.ProcRunner{Procs: s.Procs, Batch: s.Batch, Pipeline: s.Pipeline}
		backend = pr
		cleanup = func() { _ = pr.Close() }
	case "net":
		fl := s.fleetSpec()
		src, stop, err := fl.Open(func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, "xrperf fleet: "+format+"\n", a...)
		})
		if err != nil {
			return nil, nil, err
		}
		nr := &sweep.NetRunner{Members: src, Batch: s.Batch, Pipeline: s.Pipeline}
		backend = nr
		cleanup = func() {
			_ = nr.Close()
			stop()
		}
	}
	return sweep.NewCachedRunner(backend, sweep.WithDiskCache(s.openDiskCache())), cleanup, nil
}

// BuildSuite assembles the experiments suite on the spec's runner.
// cleanup is BuildRunner's.
func (s Spec) BuildSuite() (suite *experiments.Suite, cleanup func(), err error) {
	runner, cleanup, err := s.BuildRunner()
	if err != nil {
		return nil, nil, err
	}
	suite, err = s.BuildSuiteOn(runner)
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	return suite, cleanup, nil
}

// BuildSuiteOn assembles the spec's suite on a caller-supplied runner
// instead of the spec's own backend — the server path, where every job
// shares one long-lived runner (and its measurement cache) so identical
// cells requested by different clients are measured once globally. The
// spec is validated in full, backend fields included, so an invalid job
// is rejected with the exact error the one-shot CLI would print.
func (s Spec) BuildSuiteOn(runner *sweep.CachedRunner) (*experiments.Suite, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	suite, err := experiments.NewSuite(s.Seed, s.TrainRows, s.TestRows)
	if err != nil {
		return nil, err
	}
	suite.Trials = s.Trials
	suite.Workers = s.Workers
	suite.Disk = runner.Disk()
	suite.Runner = runner
	return suite, nil
}

// String renders the spec as its canonical JSON.
func (s Spec) String() string {
	b, err := json.Marshal(s)
	if err != nil {
		return fmt.Sprintf("job.Spec(%v)", err)
	}
	return string(b)
}
