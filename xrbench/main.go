// Command xrbench is the repository benchmark: a single-process load
// generator that drives xrperf's public Go APIs over loopback and checks
// every output byte against a reference rendered on the in-process pool.
//
//	xrbench --workload grid-net-cold --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints every end-to-end metric; with --trace 1 it
// runs the workload once untraced and once with spans recorded around the
// calls into each layer, and prints the per-layer metrics and the tracing
// overhead. The last line of standard output is the JSON result; the line
// before it records the seed, the environment and the sample counts.
// NOTES.md says why each workload exists.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/testbed"
)

// workload is one benchmark input set and the system wiring it runs on.
type workload struct {
	name string
	run  func(ctx context.Context, cfg config) (*report, error)
}

var workloads = []workload{
	{"grid-net-cold", runGridNetCold},
	{"population-proc", runPopulationProc},
	{"server-warm", runServerWarm},
}

// config is one benchmark invocation.
type config struct {
	Seed int64
	// Window is the timed window. A traced run spends half of it
	// untraced and half traced, in alternating slices.
	Window time.Duration
	Trace  bool
	// Setups is how many times the system is set up; setup_s is their
	// median and the last one is measured.
	Setups int
	// Scratch holds the files a run creates (disk caches); it is removed
	// at the end.
	Scratch string
	// Tiny shrinks every input to test size.
	Tiny bool
}

// lanes is the load bound: issuing goroutines, connections and worker
// processes per workload, never more than the machine's CPUs.
func lanes() int { return min(2, runtime.NumCPU()) }

// Metric names and units. BENCHMARK.json lists the same names; a test
// keeps the two in step.
var (
	endToEndUnits = map[string]string{
		"setup_s":            "s",
		"ops_per_s":          "1/s",
		"job_p50_ms":         "ms",
		"job_p90_ms":         "ms",
		"alloc_bytes_per_op": "B",
		"peak_rss_mb":        "MB",
	}
	perLayerUnits = map[string]string{
		"job.decode_us":                   "us",
		"experiments.suite_build_ms":      "ms",
		"sweep.emit_us_per_req":           "us",
		"sweep.cache.hit_frac":            "frac",
		"sweep.cache.self_us_per_req":     "us",
		"sweep.backend.stream_ms":         "ms",
		"sweep.net.steals":                "count",
		"sweep.disk.get_us":               "us",
		"sweep.disk.put_us":               "us",
		"sweep.disk.stores":               "count",
		"sweep.disk.errors":               "count",
		"testbed.exec.us_per_req":         "us",
		"testbed.codec.encode_ns_per_req": "ns",
		"testbed.codec.decode_ns_per_req": "ns",
		"testbed.codec.allocs_per_req":    "count",
		"testbed.codec.bytes_per_req":     "B",
		"testbed.wire.bytes_per_req":      "B",
		"testbed.wire.reads_per_req":      "count",
		"server.queue_wait_ms":            "ms",
		"server.rho":                      "frac",
		"server.rejected":                 "count",
		"runtime.gc_cycles_per_kop":       "count",
		"runtime.gc_pause_ms_per_s":       "ms/s",
		"trace.overhead_frac":             "frac",
	}
)

// Result is the last line of standard output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Metric is one named value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	// The proc backend re-executes this binary as its worker.
	testbed.MaybeServeWorker()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xrbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "workload seed; grids, job mix and fresh cells derive from it")
	seconds := fs.Float64("seconds", 10, "timed window in seconds")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and tracing overhead")
	spans := fs.String("spans", "", "traced run: write the spans as JSON lines to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "xrbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	cfg := config{
		Seed:    *seed,
		Window:  time.Duration(*seconds * float64(time.Second)),
		Trace:   *trace == 1,
		Setups:  7,
		Scratch: filepath.Join(".bench_build", "xrbench-tmp", fmt.Sprint(os.Getpid())),
	}
	res, detail, err := execute(ctx, *w, cfg, *spans)
	if err != nil {
		fmt.Fprintf(stderr, "xrbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(detail)
	if err != nil {
		fmt.Fprintln(stderr, "xrbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	line, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "xrbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// execute runs one workload and assembles its result line and detail
// line.
func execute(ctx context.Context, w workload, cfg config, spansPath string) (*Result, map[string]any, error) {
	if err := os.MkdirAll(cfg.Scratch, 0o755); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(cfg.Scratch)
	rep, err := w.run(ctx, cfg)
	if err != nil {
		return nil, nil, err
	}
	res := &Result{Correct: len(rep.mismatches) == 0, Metrics: map[string]Metric{}}
	detail := map[string]any{
		"workload": w.name,
		"seed":     cfg.Seed,
		"trace":    cfg.Trace,
		"env":      environment(),
		"lanes":    lanes(),
		"setup_s":  seconds(rep.setups),
	}
	for k, v := range rep.detail {
		detail[k] = v
	}
	if len(rep.mismatches) > 0 {
		detail["mismatches"] = rep.mismatches
	}
	base := rep.base
	res.Attempted, res.Failed = base.attempted, base.failed
	detail["untraced"] = base.summary()
	if !cfg.Trace {
		put := func(name string, v float64) { res.Metrics[name] = Metric{v, endToEndUnits[name]} }
		put("setup_s", median(seconds(rep.setups)))
		put("ops_per_s", base.rate())
		put("job_p50_ms", percentile(ms(base.jobs), 0.50))
		put("job_p90_ms", percentile(ms(base.jobs), 0.90))
		put("alloc_bytes_per_op", float64(base.mem.alloc)/float64(max(base.ops, 1)))
		put("peak_rss_mb", peakRSSMB())
		return res, detail, nil
	}
	tp := rep.traced
	res.Attempted += tp.attempted
	res.Failed += tp.failed
	detail["traced"] = tp.summary()
	layers := rep.layers
	layers["runtime.gc_cycles_per_kop"] = float64(tp.mem.gcs) / (float64(max(tp.ops, 1)) / 1000)
	layers["runtime.gc_pause_ms_per_s"] = float64(tp.mem.pause) / float64(time.Millisecond) / tp.window.Seconds()
	layers["trace.overhead_frac"] = base.rate()/tp.rate() - 1
	for name, unit := range perLayerUnits {
		v, ok := layers[name]
		if !ok {
			return nil, nil, fmt.Errorf("per-layer metric %s was not measured", name)
		}
		res.Metrics[name] = Metric{v, unit}
	}
	if spansPath != "" {
		if err := rep.tracer.WriteFile(spansPath); err != nil {
			return nil, nil, fmt.Errorf("write spans: %w", err)
		}
	}
	return res, detail, nil
}

// environment records what the numbers were measured on, so results from
// different machines are never compared silently.
func environment() map[string]any {
	return map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile interpolates linearly between the closest ranks.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
