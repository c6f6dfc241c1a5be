package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"constable/internal/experiments"
	"constable/internal/service"
	"constable/internal/sim"
	"constable/internal/workload"
)

// goldenInstructions is the budget internal/experiments/testdata/golden_*.txt
// were generated with, and the budget of every artifacts run.
const goldenInstructions = 12_000

// goldenIDs are the experiments with golden artifacts.
var goldenIDs = []string{"tab1", "tab3", "fig3", "fig6", "fig11", "interplay"}

// runArtifacts is the researchers' own command, `experiments -run all`
// over the small suite: the only workload that reaches every experiment
// driver, the stable-load pre-pass, SMT2 and APX. Its input is the fixed
// paper suite, so it ignores the seed.
//
// Each run of the command is a fresh child process, so the per-process
// result memoization that lets one driver reuse another's cells is paid
// every time, as it is for users. It runs at the budget the golden
// artifacts were made with, so that every run must reproduce each of them
// byte for byte, and must print the same artifacts as the first run.
// Before each run, three more children only set up and exit: set-up is
// their CPU time, from process start to exit.
func runArtifacts(o options, tr *tracer) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ids, checked := []string{"all"}, goldenIDs
	if o.scale < 1 {
		ids = goldenIDs[:4]
		checked = ids
	}
	golden := map[string]string{}
	for _, id := range checked {
		b, err := os.ReadFile(filepath.Join(o.root, "internal", "experiments", "testdata", "golden_"+id+".txt"))
		if err != nil {
			return nil, err
		}
		golden[id] = string(b)
	}
	rep := newReport()

	var setups, walls, cellRates, simRates, allocs, rss, dedup []float64
	var firstHash string
	start := time.Now()
	for len(walls) == 0 || time.Since(start) < o.seconds {
		for range 3 {
			c, err := startChild(exe, childSpec{ReadyOnly: true})
			if err != nil {
				return nil, err
			}
			setups = append(setups, c.cpu.Seconds())
		}
		sp := tr.begin("bench.child", "", 0)
		c, err := startChild(exe, childSpec{IDs: ids, N: goldenInstructions, Trace: o.trace})
		sp.end()
		rep.attempted++
		if err != nil {
			rep.fail("experiments run %d: %v", len(walls)+1, err)
			continue
		}
		tr.adopt(c.Spans, sp.id(), c.TraceCost)
		for _, id := range checked {
			rep.check(c.Golden[id] == golden[id], "experiments run %d: artifact %s differs from its golden file", len(walls)+1, id)
		}
		if firstHash == "" {
			firstHash = c.OutputHash
		} else if c.OutputHash != firstHash {
			rep.fail("experiments run %d printed different artifacts than run 1", len(walls)+1)
		}
		secs := c.wall.Seconds()
		walls = append(walls, ms(c.wall))
		cellRates = append(cellRates, float64(c.Executed)/secs)
		simRates = append(simRates, c.SimMinstPerS)
		allocs = append(allocs, float64(c.AllocBytes)/mib/float64(max(c.Executed, 1)))
		rss = append(rss, c.rssMiB)
		dedup = append(dedup, 1-float64(c.Executed)/float64(max(c.Submitted, 1)))
	}
	rep.phase = time.Since(start)

	rep.endToEnd["setup_s"] = median(setups)
	rep.endToEnd["op_p50_ms"] = median(walls)
	rep.endToEnd["cells_per_s"] = median(cellRates)
	rep.endToEnd["sim_minst_per_s"] = median(simRates)
	rep.endToEnd["alloc_mib_per_cell"] = median(allocs)
	rep.endToEnd["peak_rss_mib"] = median(rss)
	rep.diag["op_p95_ms"] = percentile(walls, 95)
	rep.diag["runs"] = float64(len(walls))
	rep.diag["service.dedup_ratio"] = median(dedup)
	rep.specs = workload.SmallSuite()
	return rep, nil
}

// childEnv carries a childSpec to a copy of this binary started by
// startChild; its presence selects the child mode.
const childEnv = "CONSTABLE_BENCH_CHILD"

// childSpec is what one child process runs.
type childSpec struct {
	IDs   []string `json:"ids"` // experiment ids, or "all"
	N     uint64   `json:"n"`   // instructions per workload per configuration
	Trace bool     `json:"trace,omitempty"`
	// ReadyOnly exits once set up, to time set-up alone.
	ReadyOnly bool `json:"ready_only,omitempty"`
}

// childReport is what a child prints on its standard output.
type childReport struct {
	// Golden holds the printed artifact of each experiment run that has a
	// golden file; OutputHash covers every experiment's.
	Golden     map[string]string `json:"golden,omitempty"`
	OutputHash string            `json:"output_sha256"`
	Submitted  uint64            `json:"submitted"`
	Executed   uint64            `json:"executed"`
	// SimMinstPerS is the median speed of the child's sim.Run calls.
	SimMinstPerS float64 `json:"sim_minst_per_s"`
	AllocBytes   uint64  `json:"alloc_bytes"`
	Spans        []span  `json:"spans,omitempty"`
	TraceCost    int64   `json:"trace_cost_ns,omitempty"`
}

// childResult is a finished child as the parent saw it.
type childResult struct {
	childReport
	wall, cpu time.Duration
	rssMiB    float64
}

// startChild runs this binary in child mode, waits for it, and returns its
// report with its wall time, CPU time and peak RSS.
func startChild(exe string, cs childSpec) (*childResult, error) {
	spec, err := json.Marshal(cs)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(spec))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	t := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	res := &childResult{wall: time.Since(t)}
	if err := json.Unmarshal(out.Bytes(), &res.childReport); err != nil {
		return nil, fmt.Errorf("child report: %w", err)
	}
	res.cpu = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.rssMiB = float64(ru.Maxrss) * 1024 / mib
	}
	return res, nil
}

// childMain is the child mode: it runs the experiments named in specJSON,
// as cmd/experiments would, and prints a childReport.
func childMain(specJSON string, stdout io.Writer) int {
	var cs childSpec
	if err := json.Unmarshal([]byte(specJSON), &cs); err != nil {
		fmt.Fprintln(os.Stderr, "constable-bench child:", err)
		return 1
	}
	var tr *tracer
	if cs.Trace {
		tr = &tracer{}
	}
	// The default scheduler's own backend, with its simulations timed.
	clock := &simClock{}
	cfg := service.Config{Backend: service.NewLocalBackend(runtime.GOMAXPROCS(0), tr.wrapRun(clock.wrap(sim.Run)))}
	if err := service.SetDefaultConfig(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "constable-bench child:", err)
		return 1
	}
	sched := service.Default()
	workload.SmallSuite()
	var buf bytes.Buffer
	runner := experiments.NewRunner(experiments.Config{Instructions: cs.N, Out: &buf})
	ids := cs.IDs
	if len(ids) == 1 && ids[0] == "all" {
		ids = runner.IDs()
	}
	var rep childReport
	if !cs.ReadyOnly {
		h := sha256.New()
		rep.Golden = map[string]string{}
		for _, id := range ids {
			sp := tr.begin("experiments."+id, "", 0)
			err := runner.Run(id)
			sp.end()
			if err != nil {
				fmt.Fprintln(os.Stderr, "constable-bench child:", err)
				return 1
			}
			h.Write(buf.Bytes())
			if slices.Contains(goldenIDs, id) {
				rep.Golden[id] = buf.String()
			}
			buf.Reset()
		}
		rep.OutputHash = hex.EncodeToString(h.Sum(nil))
	}
	m := sched.Metrics()
	rep.Submitted, rep.Executed = m.JobsSubmitted, m.JobsExecuted
	if rates := clock.take(); len(rates) > 0 {
		rep.SimMinstPerS = median(rates)
	}
	rep.AllocBytes = readMem().TotalAlloc
	if tr != nil {
		rep.Spans, rep.TraceCost = tr.finish(), tr.cost.Load()
	}
	if err := json.NewEncoder(stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "constable-bench child:", err)
		return 1
	}
	return 0
}
