package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"constable/internal/service"
	"constable/internal/sim"
	"constable/internal/workload"
)

// sweepMechanisms are the mechanism presets every sweep-short cell row
// covers: the paper's main comparison set.
var sweepMechanisms = []string{"baseline", "constable", "eves", "eves+constable", "elar", "rfp"}

// writeSweeps is the number of sweeps sweep-short writes.
const writeSweeps = 4

// runSweepShort drives an in-process service the way a researcher sweeps
// the whole suite at a short budget and later reopens the results.
//
// Write phase: writeSweeps sweeps of every workload × sweepMechanisms, each
// at its own seeded budget of 4000 + [0, 100) instructions, so every cell is
// new and simulated; per-run setup dominates these short runs. Read phase,
// for the rest of the time: restarts of the service (Close, then Open on the
// same data directory), each re-sweeping every written cell. A fixed number
// of write sweeps keeps the store, and so the cost of opening it, the same
// size in every run. Nothing is simulated on a re-sweep: it
// exercises hashing, the result store, envelope decoding and the scheduler.
//
// The operation is one write sweep, whose latency, throughput, simulated
// instructions and memory per cell are reported; set-up is opening the
// service. Re-sweep speed is only a diagnostic: reading and decoding the
// store varied by up to 32% between runs on a 2-vCPU virtual machine,
// beyond any bound a regression check could use.
func runSweepShort(o options, tr *tracer) (*report, error) {
	rng := rand.New(rand.NewSource(o.seed))
	names := workload.Names()
	names = names[:min(len(names), o.scaled(len(names)))]
	dir, err := os.MkdirTemp(o.work, "sweep-short-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rep := newReport()

	clock := &simClock{}
	cfg := service.Config{Workers: 2, DataDir: dir,
		Backend: service.NewLocalBackend(2, tr.wrapRun(clock.wrap(sim.Run)))}
	var setups []float64
	open := func() (*service.Scheduler, error) {
		sp := tr.begin("service.open", "", 0)
		defer sp.end()
		t := processCPUTime()
		s, err := service.Open(cfg)
		setups = append(setups, (processCPUTime() - t).Seconds())
		return s, err
	}
	s, err := open()
	if err != nil {
		return nil, err
	}
	defer func() { s.Close() }()

	// Warm-up, at a budget below the timed ones.
	if _, _, err := sweep(s, sweepMatrix(names[:1], 3000), tr); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	cells := len(names) * len(sweepMechanisms)
	var matrices [][][]service.JobSpec
	var digests [][][]resultDigest
	var writeTimes, writeRates []float64
	alloc0 := readMem().TotalAlloc
	resetPeakRSS()
	clock.take()
	start := time.Now()
	for _, off := range rng.Perm(100)[:writeSweeps] {
		m := sweepMatrix(names, uint64(4000+off))
		res, d, err := sweep(s, m, tr)
		rep.attempted += cells
		if err != nil {
			return nil, fmt.Errorf("write sweep: %w", err)
		}
		writeTimes = append(writeTimes, ms(d))
		writeRates = append(writeRates, float64(cells)/d.Seconds())
		matrices = append(matrices, m)
		digests = append(digests, digestMatrix(res))
	}
	allocated := readMem().TotalAlloc - alloc0
	simRates := clock.take()

	var resweeps []float64
	for restarts := 0; restarts == 0 || time.Since(start) < o.seconds; restarts++ {
		s.Close()
		if s, err = open(); err != nil {
			return nil, err
		}
		for i, m := range matrices {
			res, d, err := sweep(s, m, tr)
			rep.attempted += cells
			if err != nil {
				return nil, fmt.Errorf("re-sweep: %w", err)
			}
			resweeps = append(resweeps, ms(d))
			for r, row := range digestMatrix(res) {
				for c, got := range row {
					if got != digests[i][r][c] {
						rep.fail("restart %d: cell (%d,%d) of sweep %d differs from its first result", restarts+1, r, c, i)
					}
				}
			}
		}
		m := s.Metrics()
		rep.check(m.JobsExecuted == 0, "restart %d simulated %d cells that the store held", restarts+1, m.JobsExecuted)
		rep.diag["service.store_hit_ratio"] = float64(m.StoreHits) / float64(max(m.StoreHits+m.StoreMisses, 1))
	}
	rep.phase = time.Since(start)

	rep.endToEnd["setup_s"] = median(setups)
	rep.endToEnd["op_p50_ms"] = median(writeTimes)
	rep.endToEnd["cells_per_s"] = median(writeRates)
	rep.endToEnd["sim_minst_per_s"] = median(simRates)
	rep.endToEnd["alloc_mib_per_cell"] = float64(allocated) / mib / float64(cells*len(matrices))
	rep.endToEnd["peak_rss_mib"] = peakRSSMiB()
	rep.diag["op_p95_ms"] = percentile(writeTimes, 95)
	rep.diag["sweeps_written"] = float64(len(matrices))
	rep.diag["resweep_ms_p50"] = median(resweeps)
	rep.diag["resweep_cells_per_s"] = float64(cells) / (median(resweeps) / 1e3)

	rep.specs = make([]*workload.Spec, len(names))
	for i, n := range names {
		if rep.specs[i], err = workload.ByName(n); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// sweepMatrix is one sweep: a row per workload, a column per sweepMechanisms
// preset, every cell at budget instructions.
func sweepMatrix(names []string, budget uint64) [][]service.JobSpec {
	m := make([][]service.JobSpec, len(names))
	for i, n := range names {
		m[i] = make([]service.JobSpec, len(sweepMechanisms))
		for j, mech := range sweepMechanisms {
			m[i][j] = service.JobSpec{Workload: n, Mechanism: mech, Instructions: budget}
		}
	}
	return m
}

// sweep runs matrix to completion and returns every cell's result and the
// time from submission to the last result.
func sweep(s *service.Scheduler, matrix [][]service.JobSpec, tr *tracer) ([][]*sim.RunResult, time.Duration, error) {
	sp := tr.begin("bench.sweep", "", 0)
	defer sp.end()
	t := time.Now()
	ctx := context.Background()
	sw, err := s.StartSweep(ctx, matrix, service.SweepOptions{FailFast: true})
	if err != nil {
		return nil, 0, err
	}
	out := make([][]*sim.RunResult, len(matrix))
	for i := range out {
		out[i] = make([]*sim.RunResult, len(matrix[i]))
	}
	err = sw.Stream(ctx, true, func(ev service.SweepEvent) error {
		if ev.Status != service.StatusDone || ev.Result == nil {
			return fmt.Errorf("cell (%d,%d) %s: %s", ev.Row, ev.Col, ev.Status, ev.Error)
		}
		out[ev.Row][ev.Col] = ev.Result
		return nil
	})
	d := time.Since(t)
	if err == nil {
		err = sw.Err()
	}
	return out, d, err
}

func digestMatrix(res [][]*sim.RunResult) [][]resultDigest {
	out := make([][]resultDigest, len(res))
	for i, row := range res {
		out[i] = make([]resultDigest, len(row))
		for j, r := range row {
			out[i][j] = digestOf(r)
		}
	}
	return out
}
