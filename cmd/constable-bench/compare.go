package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
)

// runRecord is one run read back from a file of benchmark outputs.
type runRecord struct {
	meta    meta
	correct bool
	metrics map[string]float64
}

// readRuns reads every run in a file holding the standard output of one or
// more benchmark runs, concatenated: each run is its metadata line followed,
// some lines later, by its result line.
func readRuns(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []runRecord
	var cur *meta
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 || line[0] != '{' {
			continue
		}
		var rec struct {
			Meta    *meta                  `json:"meta"`
			Correct bool                   `json:"correct"`
			Metrics map[string]metricValue `json:"metrics"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		switch {
		case rec.Meta != nil:
			cur = rec.Meta
		case rec.Metrics != nil:
			if cur == nil {
				return nil, fmt.Errorf("%s: a result line has no metadata line before it", path)
			}
			r := runRecord{meta: *cur, correct: rec.Correct, metrics: map[string]float64{}}
			for name, v := range rec.Metrics {
				r.metrics[name] = v.Value
			}
			runs = append(runs, r)
			cur = nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return runs, nil
}

// runCompare compares two sets of runs metric by metric and workload by
// workload, printing one row per workload and then one line per (workload,
// metric) pair. It returns exit status 1 when any end-to-end metric
// regressed.
func runCompare(bench *benchmarkFile, basePath, changePath string, w io.Writer) (int, error) {
	base, err := readRuns(basePath)
	if err != nil {
		return 0, err
	}
	change, err := readRuns(changePath)
	if err != nil {
		return 0, err
	}
	bm, cm := describeRuns(w, "base", base), describeRuns(w, "change", change)
	if bm != cm {
		fmt.Fprintf(w, "warning: the sides ran on different machines or toolchains (%s vs %s)\n", bm, cm)
	}
	defs := append(slices.Clone(bench.EndToEnd), bench.PerLayer...)
	code := 0
	var details []string
	for _, wl := range bench.Workloads {
		b, c := samples(base, wl.Name), samples(change, wl.Name)
		var row []string
		for _, d := range defs {
			if len(b[d.Name]) == 0 || len(c[d.Name]) == 0 {
				continue
			}
			j := judge(d, b[d.Name], c[d.Name])
			row = append(row, d.Name+"="+j.verdict)
			details = append(details, fmt.Sprintf("%-14s %s", wl.Name, j))
			if j.verdict == verdictRegressed {
				code = 1
			}
		}
		if len(row) > 0 {
			fmt.Fprintf(w, "%-14s %s\n", wl.Name, strings.Join(row, " "))
		}
	}
	for _, d := range details {
		fmt.Fprintln(w, d)
	}
	return code, nil
}

// describeRuns prints what a side's runs were made with and returns the
// machine and toolchain they share (or "mixed").
func describeRuns(w io.Writer, side string, runs []runRecord) string {
	revs, machines := map[string]bool{}, map[string]bool{}
	incorrect := 0
	for _, r := range runs {
		revs[r.meta.Revision] = true
		machines[fmt.Sprintf("nproc %d, GOMAXPROCS %d, %s", r.meta.NProc, r.meta.GOMAXPROCS, r.meta.GoVersion)] = true
		if !r.correct {
			incorrect++
		}
	}
	machine := "mixed"
	if len(machines) == 1 {
		machine = sortedKeys(machines)[0]
	}
	fmt.Fprintf(w, "%s: %d runs, revision %s, %s\n", side, len(runs), strings.Join(sortedKeys(revs), " "), machine)
	if incorrect > 0 {
		fmt.Fprintf(w, "warning: %d %s runs failed their checks and are left out\n", incorrect, side)
	}
	return machine
}

// samples returns, for one workload, each metric's values over the correct
// runs, in run order.
func samples(runs []runRecord, workload string) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range runs {
		if r.meta.Workload != workload || !r.correct {
			continue
		}
		for name, v := range r.metrics {
			out[name] = append(out[name], v)
		}
	}
	return out
}

const (
	verdictImproved   = "improved"
	verdictRegressed  = "regressed"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	verdictUnchanged  = "unchanged"
)

// judgement is the comparison of one metric on one workload.
type judgement struct {
	def          metricDef
	base, change [3]float64 // quartiles
	wins, pairs  int
	verdict      string
}

// judge applies the benchmark's comparison rule. Runs pair up in order. A
// metric improved when the change wins at least nine tenths of the pairs,
// ties counting for neither side, and the medians differ by more than the
// base side's interquartile range. An end-to-end metric regressed when the
// change's median is worse than the base's by more than the metric's bound;
// when either side's spread (interquartile range over median) exceeds the
// bound the result is unresolved instead, unless every run of the change
// beats every run of the base. Per-layer metrics have no bound: they are
// worse by the mirror image of the improvement rule.
func judge(d metricDef, base, change []float64) judgement {
	j := judgement{def: d, base: quartiles(base), change: quartiles(change), pairs: min(len(base), len(change))}
	dir := 1.0
	if d.Better == "lower" {
		dir = -1
	}
	losses := 0
	for i := range j.pairs {
		switch diff := dir * (change[i] - base[i]); {
		case diff > 0:
			j.wins++
		case diff < 0:
			losses++
		}
	}
	gain := dir * (j.change[1] - j.base[1])
	baseIQR := j.base[2] - j.base[0]
	worstChange := slices.Min(scaleBy(change, dir))
	bestBase := slices.Max(scaleBy(base, dir))
	switch {
	case 10*j.wins >= 9*j.pairs && gain > baseIQR:
		j.verdict = verdictImproved
	case d.Bound == 0:
		j.verdict = verdictUnchanged
		if 10*losses >= 9*j.pairs && -gain > baseIQR {
			j.verdict = verdictWorse
		}
	case max(relSpread(j.base), relSpread(j.change)) > d.Bound && worstChange <= bestBase:
		j.verdict = verdictUnresolved
	case -gain > d.Bound*math.Abs(j.base[1]):
		j.verdict = verdictRegressed
	default:
		j.verdict = verdictUnchanged
	}
	return j
}

func (j judgement) String() string {
	bound := "no bound"
	if j.def.Bound > 0 {
		bound = fmt.Sprintf("bound %g%%", 100*j.def.Bound)
	}
	return fmt.Sprintf("%-26s base %.6g [%.6g %.6g]  change %.6g [%.6g %.6g] %s  %+.1f%%  wins %d/%d  %s  %s",
		j.def.Name, j.base[1], j.base[0], j.base[2], j.change[1], j.change[0], j.change[2], j.def.Unit,
		100*(j.change[1]/j.base[1]-1), j.wins, j.pairs, bound, j.verdict)
}

// relSpread is a side's interquartile range as a share of its median.
func relSpread(q [3]float64) float64 {
	if q[2] == q[0] {
		return 0
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}

func scaleBy(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = k * x
	}
	return out
}
