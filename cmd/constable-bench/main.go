// Command constable-bench is the repository's benchmark. One invocation runs
// one workload against the simulator and the service layers built on it,
// checks that their outputs are correct, and prints every end-to-end metric
// by name and unit; a traced invocation does the same work with spans
// recorded, then times each layer and prints the per-layer metrics instead.
//
// Usage, from the repository root:
//
//	bash cmd/constable-bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bash cmd/constable-bench/run.sh -compare <base> <change>
//
// BENCHMARK.json at the repository root names the workloads and the metrics
// with their units, directions and regression bounds; README.md in this
// directory explains each of them. The seed picks the workloads, mechanisms
// and instruction-budget jitter; the layers under test only receive the
// generated specs. Modelled caches start empty in every simulation. The
// timing model is not validated against hardware, so no error figure is
// given; the golden experiment artifacts are regression references only.
// Host times are scaled by a meter that runs beside the workload, so that
// the slow phases of a shared machine do not show as changes of the code
// (see host.go).
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A run whose correctness checks
// fail prints it with correct=false and exits with status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"constable/internal/workload"
)

// options describes one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// scale multiplies the work sizes (instruction budgets, suite slices,
	// request counts). Real runs use 1; the tests shrink it.
	scale float64
	// root is the repository root, where BENCHMARK.json and the golden
	// artifacts live; work is the directory the run writes to.
	root, work string
}

// scaled returns n scaled by the run's size, never below 1.
func (o options) scaled(n int) int {
	return max(1, int(float64(n)*o.scale))
}

// workloadFunc runs one workload and reports what it measured.
type workloadFunc func(o options, tr *tracer) (*report, error)

// workloads is every workload the benchmark runs, by BENCHMARK.json name.
var workloads = map[string]workloadFunc{
	"artifacts":     runArtifacts,
	"core-long":     runCoreLong,
	"sweep-short":   runSweepShort,
	"cluster-mixed": runClusterMixed,
}

func main() {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec, os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("constable-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "seed for the generated inputs")
	seconds := fs.Float64("seconds", 15, "length of the timed phase, in seconds")
	trace := fs.Int("trace", 0, "1 records spans, times each layer and prints the per-layer metrics")
	compare := fs.Bool("compare", false, "compare two files of run outputs: -compare <base> <change>")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "constable-bench:", err)
		return 1
	}
	bench, err := loadBenchmark(filepath.Join(root, benchmarkFileName))
	if err != nil {
		fmt.Fprintln(stderr, "constable-bench:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "constable-bench: -compare takes two files: <base> <change>")
			return 2
		}
		code, err := runCompare(bench, fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "constable-bench:", err)
			return 1
		}
		return code
	}

	o := options{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace != 0,
		scale:    1,
		root:     root,
		work:     filepath.Join(root, ".bench_build"),
	}
	if workloads[o.workload] == nil {
		fmt.Fprintf(stderr, "constable-bench: unknown workload %q\n", o.workload)
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "constable-bench: -seconds must be positive")
		return 2
	}
	rep, err := runWorkload(o, bench, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "constable-bench:", err)
		return 1
	}
	if err := writeResult(stdout, bench, o, rep); err != nil {
		fmt.Fprintln(stderr, "constable-bench:", err)
		return 1
	}
	for _, p := range rep.problems {
		fmt.Fprintln(stderr, "constable-bench: check failed:", p)
	}
	if rep.failed > 0 {
		return 1
	}
	return 0
}

// runWorkload runs o's workload with a host meter beside it and scales the
// host times among bench's end-to-end metrics to the sizing machine: wall
// times by the meter's scale, set-up, a CPU time, by its speed. When
// tracing, it writes the span file, derives the span-based layer metrics
// and times each layer on its own. Diagnostics go to diag.
func runWorkload(o options, bench *benchmarkFile, diag io.Writer) (*report, error) {
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	var tr *tracer
	if o.trace {
		tr = &tracer{}
	}
	meter := startHostMeter()
	rep, err := workloads[o.workload](o, tr)
	host, merr := meter.finish()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	if merr != nil {
		return nil, merr
	}
	rep.diag["host.ref_ms"] = host.refMS
	rep.diag["host.steal_pct"] = 100 * host.stealShare
	for _, d := range bench.EndToEnd {
		if v, ok := rep.endToEnd[d.Name]; ok {
			f := host.scale()
			if d.Name == "setup_s" {
				f = host.speed() // set-up is timed in CPU time, which stolen time does not stretch
			}
			rep.diag["raw."+d.Name] = v
			rep.endToEnd[d.Name] = v * math.Pow(f, hostPower(d.Unit))
		}
	}
	if tr != nil {
		spans := tr.finish()
		path := filepath.Join(o.work, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))
		if err := writeSpans(path, spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(diag, "spans: %d written to %s\n", len(spans), path)
		rep.layer["sim.run_ms_p50"] = median(durationsMS(spans, "sim.run"))
		rep.layer["bench.trace_overhead_pct"] = 100 * float64(tr.cost.Load()) / float64(rep.phase)
		for name, v := range spanDiagnostics(spans) {
			rep.diag[name] = v
		}
		layers, err := probeLayers(o, rep.specs)
		if err != nil {
			return nil, fmt.Errorf("%s: probe: %w", o.workload, err)
		}
		for name, v := range layers {
			rep.layer[name] = v
		}
	}
	for _, name := range sortedKeys(rep.diag) {
		fmt.Fprintf(diag, "diag %s %s\n", name, strconv.FormatFloat(rep.diag[name], 'g', -1, 64))
	}
	return rep, nil
}

// report is what one workload run measured and checked.
type report struct {
	// attempted counts the operations and checks the run made; failed those
	// that failed, with one line per failure in problems.
	attempted, failed int
	problems          []string
	// endToEnd holds the timed phase's end-to-end metrics and layer the
	// per-layer metrics (traced runs only), each keyed by BENCHMARK.json
	// name in its unit. diag holds workload-specific diagnostics that are
	// printed to standard error and never compared.
	endToEnd, layer, diag map[string]float64
	// phase is the timed phase's wall time.
	phase time.Duration
	// specs are the workload's programs, from which a traced run draws the
	// inputs of its per-layer probes.
	specs []*workload.Spec
}

// hostPower is the power of the host's slowness that a metric in unit
// carries: 1 for a duration, -1 for a rate per second, 0 for the rest.
func hostPower(unit string) float64 {
	switch {
	case unit == "s" || unit == "ms":
		return 1
	case strings.HasSuffix(unit, "/s"):
		return -1
	}
	return 0
}

func newReport() *report {
	return &report{endToEnd: map[string]float64{}, layer: map[string]float64{}, diag: map[string]float64{}}
}

// check counts one correctness check, recording a failure when !ok.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

// fail records a failed operation or check that was already counted as
// attempted.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// meta identifies where and how a run was made, so that -compare never
// silently compares records from different machines or toolchains.
type meta struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	Revision   string  `json:"revision"`
}

func runMeta(o options) meta {
	m := meta{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds.Seconds(), Trace: o.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Revision: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				m.Revision = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				m.Revision += "+modified"
			}
		}
	}
	return m
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// writeResult prints the run's metadata line, one "<name> <value> <unit>"
// line per metric, the operation count, and the result line. An untraced
// run reports every end-to-end metric and a traced run every per-layer
// metric; a metric the workload did not produce is an error.
func writeResult(w io.Writer, bench *benchmarkFile, o options, rep *report) error {
	defs, values := bench.EndToEnd, rep.endToEnd
	if o.trace {
		defs, values = bench.PerLayer, rep.layer
	}
	res := result{Correct: rep.failed == 0, Attempted: max(rep.attempted, 1), Failed: rep.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	metaLine, err := json.Marshal(map[string]meta{"meta": runMeta(o)})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", metaLine)
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s not measured (got %v)", o.workload, d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "%s %s %s\n", d.Name, strconv.FormatFloat(v, 'g', -1, 64), d.Unit)
	}
	fmt.Fprintf(w, "ops %d failed %d\n", res.Attempted, res.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
