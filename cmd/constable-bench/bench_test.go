package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestMain lets the artifacts workload re-execute the test binary as its
// child process, as the benchmark binary re-executes itself.
func TestMain(m *testing.M) {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec, os.Stdout))
	}
	os.Exit(m.Run())
}

func loadTestBenchmark(t *testing.T) (string, *benchmarkFile) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bench, err := loadBenchmark(filepath.Join(root, benchmarkFileName))
	if err != nil {
		t.Fatal(err)
	}
	return root, bench
}

// TestBenchmarkFile checks BENCHMARK.json against the limits its readers
// enforce and against this program: the workloads it runs and the mapping
// from each per-layer metric to the end-to-end metric it should move.
func TestBenchmarkFile(t *testing.T) {
	_, bench := loadTestBenchmark(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(bench.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(bench.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(bench.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if bench.RunSeconds < 1 || bench.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1 to 60", bench.RunSeconds)
	}
	seen := map[string]bool{}
	workloadNames := map[string]bool{}
	for _, w := range bench.Workloads {
		if !name.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q is malformed or repeated", w.Name)
		}
		seen[w.Name], workloadNames[w.Name] = true, true
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of 1 to 200 characters", w.Name)
		}
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	if len(workloads) != len(bench.Workloads) {
		t.Errorf("the program runs %d workloads, BENCHMARK.json names %d", len(workloads), len(bench.Workloads))
	}
	endToEnd := map[string]bool{}
	for _, d := range bench.EndToEnd {
		endToEnd[d.Name] = true
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g, want (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !endToEnd["setup_s"] {
		t.Error("no setup_s metric")
	}
	for _, d := range append(append([]metricDef(nil), bench.EndToEnd...), bench.PerLayer...) {
		if !name.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or repeated", d.Name)
		}
		seen[d.Name] = true
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: malformed unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q, want lower or higher", d.Name, d.Better)
		}
	}
	for _, d := range bench.PerLayer {
		if d.Bound != 0 {
			t.Errorf("%s: per-layer metrics have no bound", d.Name)
		}
		mv, ok := layerMoves[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: no entry in layerMoves", d.Name)
		case !endToEnd[mv.metric] || !workloadNames[mv.workload]:
			t.Errorf("%s: moves %s on %s, which is not an end-to-end metric and workload", d.Name, mv.metric, mv.workload)
		}
	}
	if len(layerMoves) != len(bench.PerLayer) {
		t.Errorf("layerMoves has %d entries for %d per-layer metrics", len(layerMoves), len(bench.PerLayer))
	}
}

// TestWorkloads runs every workload at a reduced size, untraced and traced,
// and checks that it measures every metric of the run's kind, that its
// result line carries exactly those, and that all its checks pass.
func TestWorkloads(t *testing.T) {
	root, bench := loadTestBenchmark(t)
	for _, w := range bench.Workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.Name, trace), func(t *testing.T) {
				o := options{workload: w.Name, seed: 1, seconds: 300 * time.Millisecond, trace: trace,
					scale: 0.05, root: root, work: t.TempDir()}
				rep, err := runWorkload(o, bench, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if rep.failed != 0 || rep.attempted == 0 {
					t.Fatalf("%d of %d operations failed: %v", rep.failed, rep.attempted, rep.problems)
				}
				defs, values := bench.EndToEnd, rep.endToEnd
				if trace {
					defs, values = bench.PerLayer, rep.layer
					if _, err := os.Stat(filepath.Join(o.work, "spans-"+w.Name+"-1.jsonl")); err != nil {
						t.Error(err)
					}
				}
				for _, d := range defs {
					if v, ok := values[d.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("%s: %v, measured %v", d.Name, v, ok)
					}
				}

				var out bytes.Buffer
				if err := writeResult(&out, bench, o, rep); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || len(res.Metrics) != len(defs) {
					t.Errorf("result line %s", lines[len(lines)-1])
				}
			})
		}
	}
}

// TestRefPassAllocatesNothing keeps the host meter out of the workloads'
// allocation metrics and garbage collection.
func TestRefPassAllocatesNothing(t *testing.T) {
	w := newRefWork()
	w.pass()
	if n := testing.AllocsPerRun(5, w.pass); n != 0 {
		t.Errorf("a reference pass allocates %v times", n)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{2.5, 9, 4, 7, 1.5}, [3]float64{2, 4, 8}},
	} {
		if got := quartiles(tc.xs); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "op_p50_ms", Better: "lower", Bound: 0.1}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(k float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * k
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name         string
		def          metricDef
		base, change []float64
		want         string
	}{
		{"same runs", lower, base, base, verdictUnchanged},
		{"small shift inside the bound", lower, base, shift(1.05), verdictUnchanged},
		{"faster in every pair", lower, base, shift(0.9), verdictImproved},
		{"slower beyond the bound", lower, base, shift(1.2), verdictRegressed},
		{"spread wider than the bound", lower, noisy, shift(1.2), verdictUnresolved},
		{"per-layer, slower in every pair", metricDef{Name: "x", Better: "lower"}, base, shift(1.2), verdictWorse},
		{"higher is better", metricDef{Name: "y", Better: "higher", Bound: 0.1}, base, shift(0.8), verdictRegressed},
	} {
		if got := judge(tc.def, tc.base, tc.change).verdict; got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}
