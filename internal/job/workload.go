package job

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/cnn"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/pipeline"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/testbed"
)

// Kind selects a job's workload.
type Kind string

const (
	// KindSweep runs an arbitrary scenario grid (the `xrperf sweep`
	// workload); the empty kind means sweep.
	KindSweep Kind = "sweep"
	// KindReport regenerates the full Markdown evaluation report (the
	// `xrperf report` workload).
	KindReport Kind = "report"
	// KindPopulation simulates a population of XR sessions (the `xrperf
	// population` workload): a named scenario expanded into cohorts,
	// swept on the job's backend, folded into mergeable summaries.
	KindPopulation Kind = "population"
)

// Population parameterizes the population workload. Like Grid it is
// plain data: the scenario name resolves at Run time through the same
// generator the one-shot CLI uses, so an unknown name fails with the
// generator's own message on both front doors.
type Population struct {
	// Scenario names the generator (see scenario.Names); empty means
	// vehicular.
	Scenario string `json:"scenario,omitempty"`
	// Users is the total simulated population, split across the
	// scenario's cohorts (0 = 10000).
	Users int `json:"users,omitempty"`
	// Frames is the per-user session length (0 = 120).
	Frames int `json:"frames,omitempty"`
	// Shard caps sessions per request shard (0 = sweep.DefaultShardUsers;
	// output is byte-identical for any value).
	Shard int `json:"shard,omitempty"`
}

// withDefaults resolves the zero values to the CLI flag defaults, so a
// minimal JSON document runs the same population the bare subcommand
// does.
func (p Population) withDefaults() Population {
	if p.Scenario == "" {
		p.Scenario = "vehicular"
	}
	if p.Users == 0 {
		p.Users = 10000
	}
	if p.Frames == 0 {
		p.Frames = 120
	}
	return p
}

// Grid is the serializable form of a sweep grid: catalog names and
// numeric axes, resolvable in any process. It is the wire twin of
// sweep.Grid, which holds resolved device/CNN objects; keeping the grid
// as plain data is what lets a job carry it to a server, and resolving
// through one Build path is what keeps CLI and server grid errors
// textually identical.
type Grid struct {
	// Devices lists Table I device names; the single entry "all" selects
	// the whole catalog.
	Devices []string `json:"devices,omitempty"`
	// Modes lists inference modes ("local", "remote").
	Modes []string `json:"modes,omitempty"`
	// CNNs lists Table II model names (empty = pipeline defaults).
	CNNs []string `json:"cnns,omitempty"`
	// Sizes lists frame sizes (pixel² unit).
	Sizes []float64 `json:"sizes,omitempty"`
	// Freqs lists CPU clocks in GHz (0 = device max).
	Freqs []float64 `json:"freqs,omitempty"`
}

// splitList splits a comma-separated flag value, dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// parseFloats parses a comma-separated list of numbers.
func parseFloats(flagName, s string) ([]float64, error) {
	var out []float64
	for _, part := range splitList(s) {
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("-%s: %q is not a number", flagName, part)
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseGrid builds a Grid from the sweep subcommand's comma-separated
// flag values. Names are kept as given — Build resolves them — so flag
// parsing and JSON decoding meet the catalogs through the same path.
func ParseGrid(devices, modes, cnns, sizes, freqs string) (Grid, error) {
	g := Grid{
		Devices: splitList(devices),
		Modes:   splitList(modes),
		CNNs:    splitList(cnns),
	}
	var err error
	if g.Sizes, err = parseFloats("sizes", sizes); err != nil {
		return Grid{}, err
	}
	if g.Freqs, err = parseFloats("freqs", freqs); err != nil {
		return Grid{}, err
	}
	return g, nil
}

// Build resolves the grid's names against the device and CNN catalogs.
// Unknown names error with the catalog's own message, identically for a
// grid parsed from flags or decoded from a job document.
func (g Grid) Build() (sweep.Grid, error) {
	var out sweep.Grid
	if len(g.Devices) == 1 && g.Devices[0] == "all" {
		out.Devices = device.Catalog()
	} else {
		for _, name := range g.Devices {
			d, err := device.ByName(name)
			if err != nil {
				return sweep.Grid{}, err
			}
			out.Devices = append(out.Devices, d)
		}
	}
	if len(out.Devices) == 0 {
		return sweep.Grid{}, fmt.Errorf("-devices: at least one device required")
	}
	for _, m := range g.Modes {
		switch m {
		case "local":
			out.Modes = append(out.Modes, pipeline.ModeLocal)
		case "remote":
			out.Modes = append(out.Modes, pipeline.ModeRemote)
		default:
			return sweep.Grid{}, fmt.Errorf("-modes: unknown mode %q (local or remote)", m)
		}
	}
	for _, name := range g.CNNs {
		m, err := cnn.ByName(name)
		if err != nil {
			return sweep.Grid{}, err
		}
		out.CNNs = append(out.CNNs, m)
	}
	out.FrameSizes = g.Sizes
	out.CPUFreqs = g.Freqs
	return out, nil
}

// Job is one complete serializable work order: what to run (Kind plus
// the workload's parameters) and the execution environment to run it in
// (Spec). The same document drives the one-shot CLI and a server
// request, and Run renders the same bytes for both — that equivalence is
// the contract the submit client relies on.
type Job struct {
	// Kind selects the workload; empty means KindSweep.
	Kind Kind `json:"kind,omitempty"`
	// Spec is the execution environment. A server substitutes its own
	// shared runner for the backend fields but validates them anyway, so
	// a bad spec fails identically on both front doors.
	Spec Spec `json:"spec"`
	// Grid is the sweep workload (KindSweep only).
	Grid *Grid `json:"grid,omitempty"`
	// Population is the population workload (KindPopulation only); nil
	// runs the default scenario at the default scale.
	Population *Population `json:"population,omitempty"`
	// Format is the sweep output format: "table" (default) or "csv".
	Format string `json:"format,omitempty"`
	// Stream emits output as grid/report prefixes complete instead of
	// buffering; the bytes are identical either way, only the timing
	// differs. Servers always stream.
	Stream bool `json:"stream,omitempty"`
}

func (j Job) kind() Kind {
	if j.Kind == "" {
		return KindSweep
	}
	return j.Kind
}

func (j Job) format() string {
	if j.Format == "" {
		return "table"
	}
	return j.Format
}

func (j Job) population() Population {
	var p Population
	if j.Population != nil {
		p = *j.Population
	}
	return p.withDefaults()
}

// Validate checks the job document: the spec in full, the kind, and the
// workload fields the kind requires. Grid names resolve at Run time,
// through the same catalogs the CLI uses.
func (j Job) Validate() error {
	if err := j.Spec.Validate(); err != nil {
		return err
	}
	switch j.kind() {
	case KindSweep:
		if j.Grid == nil {
			return fmt.Errorf("job: a sweep job needs a grid")
		}
		switch j.format() {
		case "table", "csv":
		default:
			return fmt.Errorf("-format: unknown format %q (table or csv)", j.Format)
		}
	case KindReport:
	case KindPopulation:
		var p Population
		if j.Population != nil {
			p = *j.Population
		}
		if p.Users < 0 {
			return fmt.Errorf("job: -users must be >= 0, have %d", p.Users)
		}
		if p.Frames < 0 {
			return fmt.Errorf("job: -frames must be >= 0, have %d", p.Frames)
		}
		if p.Shard < 0 {
			return fmt.Errorf("job: -shard must be >= 0, have %d", p.Shard)
		}
		if p = p.withDefaults(); p.Frames > testbed.MaxSessionFrames/p.Users {
			return fmt.Errorf("job: -users × -frames must be <= %d, have %d × %d",
				testbed.MaxSessionFrames, p.Users, p.Frames)
		}
		if j.format() != "table" {
			return fmt.Errorf("-format: population renders table output only, have %q", j.Format)
		}
	default:
		return fmt.Errorf("job: unknown kind %q (sweep, report, or population)", j.Kind)
	}
	return nil
}

// Decode parses one job document from JSON.
func Decode(data []byte) (Job, error) {
	var j Job
	if err := json.Unmarshal(data, &j); err != nil {
		return Job{}, fmt.Errorf("job: bad job document: %v", err)
	}
	return j, nil
}

// Run executes the job's workload on the suite, writing its canonical
// output to out. The suite is built from the job's spec (BuildSuite for
// the CLI, BuildSuiteOn for a server's shared runner); either way the
// bytes written here are identical, because every workload renders
// through the experiments layer's deterministic streaming primitives.
func (j Job) Run(ctx context.Context, suite *experiments.Suite, out io.Writer) error {
	if err := j.Validate(); err != nil {
		return err
	}
	switch j.kind() {
	case KindSweep:
		grid, err := j.Grid.Build()
		if err != nil {
			return err
		}
		if j.format() == "csv" {
			return runSweepCSV(ctx, suite, grid, j.Stream, out)
		}
		return runSweepTable(ctx, suite, grid, j.Stream, out)
	case KindReport:
		if j.Stream {
			return suite.StreamReport(ctx, out)
		}
		return suite.WriteReport(out)
	case KindPopulation:
		return runPopulation(ctx, suite, j.population(), j.Spec.Seed, out)
	}
	return fmt.Errorf("job: unknown kind %q (sweep, report, or population)", j.Kind)
}

// SuiteFor assembles the suite the job's workload runs on, sharing the
// caller's runner. Sweep and report workloads need the full suite —
// fitted regression models, catalogs — built by BuildSuiteOn; a
// population job only measures sessions, so it skips the regression fit
// and binds the runner directly. The server routes every submitted job
// through here, and the one-shot population subcommand does too, so both
// front doors build identical machinery.
func (j Job) SuiteFor(runner *sweep.CachedRunner) (*experiments.Suite, error) {
	if err := j.Validate(); err != nil {
		return nil, err
	}
	if j.kind() == KindPopulation {
		return &experiments.Suite{Seed: j.Spec.Seed, Runner: runner}, nil
	}
	return j.Spec.BuildSuiteOn(runner)
}

// runPopulation expands the scenario into cohorts, sweeps their sessions
// on the suite's runner, and renders the merged per-cohort report. The
// report depends only on (cohorts, seed) — shard size, backend, and
// fleet shape never change a byte.
func runPopulation(ctx context.Context, suite *experiments.Suite, p Population, seed int64, out io.Writer) error {
	cohorts, err := scenario.Generate(p.Scenario, scenario.Params{
		Users:  p.Users,
		Frames: p.Frames,
		Seed:   seed,
	})
	if err != nil {
		return err
	}
	res, err := sweep.RunPopulation(ctx, suite.Runner, cohorts, sweep.PopulationOptions{ShardUsers: p.Shard})
	if err != nil {
		return err
	}
	_, err = fmt.Fprint(out, res.Render())
	return err
}

// runSweepTable renders the sweep as the human-readable table. With
// stream, rows are written as grid prefixes complete; the bytes are
// identical to the buffered table, only the timing differs. The header
// carries the grid size, which is known up front, and the aggregate line
// follows the last row.
func runSweepTable(ctx context.Context, suite *experiments.Suite, grid sweep.Grid, stream bool, out io.Writer) error {
	if !stream {
		res, err := suite.RunGrid(ctx, grid)
		if err != nil {
			return err
		}
		_, err = fmt.Fprint(out, res.Render())
		return err
	}
	if _, err := io.WriteString(out, experiments.GridHeader(grid.Size())); err != nil {
		return err
	}
	var row []byte // one buffer for every row: a row is written before the next is spelled
	res, err := suite.StreamGrid(ctx, grid, func(p experiments.GridPoint) error {
		row = p.AppendRow(row[:0])
		_, err := out.Write(row)
		return err
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprint(out, res.RenderFooter())
	return err
}

// runSweepCSV renders the sweep as machine-readable CSV (full float
// precision, data rows only), optionally streaming records as grid
// prefixes complete.
func runSweepCSV(ctx context.Context, suite *experiments.Suite, grid sweep.Grid, stream bool, out io.Writer) error {
	if !stream {
		res, err := suite.RunGrid(ctx, grid)
		if err != nil {
			return err
		}
		return res.WriteCSV(out)
	}
	cw := csv.NewWriter(out)
	if err := cw.Write(experiments.CSVHeader()); err != nil {
		return err
	}
	cw.Flush()
	if _, err := suite.StreamGrid(ctx, grid, func(p experiments.GridPoint) error {
		if err := cw.Write(p.CSVRecord()); err != nil {
			return err
		}
		cw.Flush()
		return cw.Error()
	}); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}
