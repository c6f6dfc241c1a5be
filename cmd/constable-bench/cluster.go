package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"constable/internal/service"
	"constable/internal/sim"
	"constable/internal/worker"
	"constable/internal/workload"
)

const (
	// interactiveRate is the open-loop arrival rate of interactive requests.
	interactiveRate = 40.0
	// sloLatency is the interactive latency limit; a failed or refused
	// request misses it too.
	sloLatency = 250 * time.Millisecond
	// requestTimeout bounds one interactive request. A request that fails
	// counts as having taken this long in the latency percentiles.
	requestTimeout = 10 * time.Second
	// floodClients is the number of closed-loop batch clients.
	floodClients = 2
	// verifySamples is how many interactive and how many flood cells are
	// re-simulated directly to check the cluster's results.
	verifySamples = 10
)

// runClusterMixed runs a dispatch-only server and two workers of one slot
// each over loopback HTTP, all in this process, under mixed load:
//
//   - a batch flood: two closed-loop batch clients, each submitting
//     back-to-back one-cell sweeps to the server's scheduler — the small
//     suite under the baseline and Constable in turn, at 20000 + a seeded
//     [0, 1000) + the cell's index instructions. Both workers stay busy
//     while the batch queue stays short; with whole-suite sweeps queued,
//     interactive latency depended mostly on how the Go runtime shared the
//     two CPUs, and its median varied by 40% between runs;
//   - interactive load: an open loop of POST /v1/runs?wait=1 at
//     interactiveRate for the timed phase, each request a seeded workload
//     and mechanism at 3000 + its index instructions, so none is answered
//     from a cache. Latency is timed from each request's due time, so a
//     stall also delays the requests behind it.
//
// It is the only workload that exercises HTTP, remote dispatch, the
// fair-share classes and envelope transport. The client opens at most two
// connections.
func runClusterMixed(o options, tr *tracer) (*report, error) {
	rng := rand.New(rand.NewSource(o.seed))
	rep := newReport()

	clock := &simClock{}
	run := tr.wrapRun(clock.wrap(sim.Run))
	client := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2},
		Timeout:   requestTimeout,
	}
	defer client.CloseIdleConnections()
	names := workload.Names()
	small := workload.SmallSuite()
	small = small[:min(len(small), o.scaled(len(small)))]

	// Set-up lasts until the new cluster has answered its first request, so
	// that work moved between start-up and first use still counts; starting
	// the cluster alone takes about a millisecond. It is timed many times:
	// before the timed phase and again after it, with the cluster idle. Each
	// start waits a few milliseconds first, so that the goroutines of the
	// cluster closed before it have exited and their CPU time is not
	// counted.
	first := service.JobSpec{Workload: small[0].Name, Mechanism: "baseline", Instructions: 2000}
	var setups []float64
	startTimed := func() (*cluster, error) {
		time.Sleep(5 * time.Millisecond)
		t := processCPUTime()
		c, err := startCluster(o, tr, run)
		if err != nil {
			return nil, err
		}
		if _, err := c.interactive(client, first, tr); err != nil {
			c.close()
			return nil, fmt.Errorf("first request: %w", err)
		}
		setups = append(setups, (processCPUTime() - t).Seconds())
		return c, nil
	}
	setUpSpares := func() error {
		for range 15 {
			spare, err := startTimed()
			if err != nil {
				return err
			}
			spare.close()
			client.CloseIdleConnections()
		}
		return nil
	}
	if err := setUpSpares(); err != nil {
		return nil, err
	}
	c, err := startTimed()
	if err != nil {
		return nil, err
	}
	defer c.close()
	n := max(1, int(interactiveRate*o.seconds.Seconds()))
	requests := make([]service.JobSpec, n)
	for i := range requests {
		requests[i] = service.JobSpec{
			Workload:     names[rng.Intn(len(names))],
			Mechanism:    sweepMechanisms[rng.Intn(len(sweepMechanisms))],
			Instructions: uint64(3000 + i),
		}
	}
	floodBase := 20_000 + rng.Intn(1000)
	floodPicks := map[int]bool{} // flood cells to check, among the first ones
	for _, k := range rng.Perm(2 * verifySamples)[:verifySamples] {
		floodPicks[k] = true
	}
	interactivePicks := rng.Perm(n)[:min(n, verifySamples)]

	// Warm-up, at budgets outside the timed ones.
	for i := range 4 {
		warm := service.JobSpec{Workload: names[i], Mechanism: "constable", Instructions: uint64(2000 + i)}
		if _, err := c.interactive(client, warm, tr); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	for k := range 4 {
		if err := c.flood(context.Background(), floodCell(small, k, 19_000), func(service.SweepEvent) {}); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}

	m0 := c.sched.Metrics()
	alloc0 := readMem().TotalAlloc
	resetPeakRSS()
	clock.take()
	ctx, stopFlood := context.WithCancel(context.Background())
	var floodMu sync.Mutex
	var floodDone []time.Duration // when each flood cell finished, from the phase start
	floodSamples := map[int]floodSample{}
	var floodErr error
	var nextCell atomic.Int64
	var floodWG sync.WaitGroup
	start := time.Now()
	for range floodClients {
		floodWG.Add(1)
		go func() {
			defer floodWG.Done()
			for ctx.Err() == nil {
				k := int(nextCell.Add(1) - 1)
				m := floodCell(small, k, floodBase)
				err := c.flood(ctx, m, func(ev service.SweepEvent) {
					floodMu.Lock()
					defer floodMu.Unlock()
					floodDone = append(floodDone, time.Since(start))
					if floodPicks[k] {
						floodSamples[k] = floodSample{spec: m[0][0], res: ev.Result}
					}
				})
				if err != nil && ctx.Err() == nil {
					floodMu.Lock()
					floodErr = err
					floodMu.Unlock()
					return
				}
			}
		}()
	}

	latency := make([]float64, n)
	late := make([]float64, n)
	got := make([]*sim.RunResult, n)
	failed := make([]error, n)
	var wg sync.WaitGroup
	for i := range requests {
		due := start.Add(time.Duration(float64(i) / interactiveRate * float64(time.Second)))
		time.Sleep(time.Until(due))
		late[i] = ms(time.Since(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], failed[i] = c.interactive(client, requests[i], tr)
			latency[i] = ms(time.Since(due))
			if failed[i] != nil {
				latency[i] = ms(requestTimeout)
			}
		}()
	}
	wg.Wait()
	rep.phase = time.Since(start)
	simRates := clock.take()
	stopFlood()
	floodWG.Wait()
	if floodErr != nil {
		return nil, fmt.Errorf("flood: %w", floodErr)
	}
	allocated := readMem().TotalAlloc - alloc0
	m1 := c.sched.Metrics()
	if err := setUpSpares(); err != nil {
		return nil, err
	}

	slowOrFailed := 0
	for i := range requests {
		rep.attempted++
		if failed[i] != nil {
			rep.fail("interactive request %d: %v", i, failed[i])
		}
		if failed[i] != nil || latency[i] > ms(sloLatency) {
			slowOrFailed++
		}
	}
	for _, i := range interactivePicks {
		if got[i] != nil {
			verify(rep, fmt.Sprintf("interactive request %d", i), requests[i], got[i])
		}
	}
	for k, s := range floodSamples {
		verify(rep, fmt.Sprintf("flood cell %d", k), s.spec, s.res)
	}
	rep.check(len(floodSamples) > 0, "no sampled flood cell finished during the timed phase")

	executed := float64(m1.JobsExecuted - m0.JobsExecuted)
	rep.endToEnd["setup_s"] = median(setups)
	rep.endToEnd["op_p50_ms"] = median(latency)
	rep.endToEnd["cells_per_s"] = windowRate(floodDone, rep.phase)
	rep.endToEnd["sim_minst_per_s"] = median(simRates)
	rep.endToEnd["alloc_mib_per_cell"] = float64(allocated) / mib / max(executed, 1)
	rep.endToEnd["peak_rss_mib"] = peakRSSMiB()

	rep.diag["interactive_p95_ms"] = percentile(latency, 95)
	rep.diag["interactive_p99_ms"] = percentile(latency, 99)
	rep.diag["interactive_slo_miss_ratio"] = float64(slowOrFailed) / float64(n)
	rep.diag["bench.gen_late_p99_ms"] = percentile(late, 99)
	rep.diag["service.batches_dispatched"] = float64(m1.BatchesDispatched - m0.BatchesDispatched)
	rep.diag["service.batch_cells"] = float64(m1.BatchCells - m0.BatchCells)
	rep.diag["service.requeued"] = float64(m1.JobsRequeued - m0.JobsRequeued)
	rep.diag["service.admission_rejected"] = float64(m1.AdmissionRejected - m0.AdmissionRejected)
	for _, cl := range m1.Classes {
		var wait0 float64
		var disp0 uint64
		for _, c0 := range m0.Classes {
			if c0.Name == cl.Name {
				wait0, disp0 = c0.QueueWaitSeconds, c0.Dispatched
			}
		}
		if d := cl.Dispatched - disp0; d > 0 {
			rep.diag["service."+cl.Name+"_queue_wait_ms"] = (cl.QueueWaitSeconds - wait0) * 1e3 / float64(d)
		}
	}

	rep.specs = small
	return rep, nil
}

// windowRate returns the median number of events per one-second window of
// a phase, given when each event happened; a phase shorter than a second
// gives its mean rate.
func windowRate(at []time.Duration, phase time.Duration) float64 {
	windows := int(phase / time.Second)
	if windows < 1 {
		return float64(len(at)) / phase.Seconds()
	}
	counts := make([]float64, windows)
	for _, t := range at {
		if i := int(t / time.Second); i < windows {
			counts[i]++
		}
	}
	return median(counts)
}

type floodSample struct {
	spec service.JobSpec
	res  *sim.RunResult
}

// verify re-simulates spec directly with sim.Run and checks that the
// cluster's result has the same cycles and counters.
func verify(rep *report, what string, spec service.JobSpec, got *sim.RunResult) {
	opts, err := spec.ToOptions()
	if err != nil {
		rep.check(false, "%s: %v", what, err)
		return
	}
	want, err := sim.Run(opts)
	if err != nil {
		rep.check(false, "%s: direct run: %v", what, err)
		return
	}
	rep.check(digestOf(want) == digestOf(got), "%s: cluster result differs from a direct sim.Run", what)
}

// floodCell is the k-th flood sweep: one cell, cycling through the given
// workloads under the baseline and then Constable, at base + k instructions
// so that no two cells are alike.
func floodCell(specs []*workload.Spec, k, base int) [][]service.JobSpec {
	mech := [2]string{"baseline", "constable"}[k/len(specs)%2]
	return [][]service.JobSpec{{{Workload: specs[k%len(specs)].Name, Mechanism: mech, Instructions: uint64(base + k)}}}
}

// cluster is a dispatch-only server and two one-slot workers, each behind
// its own loopback HTTP listener.
type cluster struct {
	dir     string
	sched   *service.Scheduler
	srv     *httptest.Server
	workers []*worker.Worker
	wsrvs   []*httptest.Server
}

// startCluster builds a cluster whose workers simulate with run and returns
// once the server can dispatch to both of them.
//
// The workers do not consult the cluster-wide result share: every cell of
// this workload is new, so a lookup could only miss, and its round trips
// would load the server with work no cell needs.
func startCluster(o options, tr *tracer, run func(sim.Options) (*sim.RunResult, error)) (c *cluster, err error) {
	c = &cluster{}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	if c.dir, err = os.MkdirTemp(o.work, "cluster-"); err != nil {
		return c, err
	}
	sp := tr.begin("service.open", "", 0)
	c.sched, err = service.Open(service.Config{Workers: -1, DataDir: c.dir, WorkerTTL: time.Hour})
	sp.end()
	if err != nil {
		return c, err
	}
	c.srv = httptest.NewServer(tr.wrapHandler("http.server", service.NewHandler(c.sched)))
	for i := range 2 {
		ws := httptest.NewUnstartedServer(http.NotFoundHandler())
		c.wsrvs = append(c.wsrvs, ws)
		w, err := worker.New(worker.Options{
			Server:        c.srv.URL,
			Advertise:     "http://" + ws.Listener.Addr().String(),
			Name:          fmt.Sprintf("worker-%d", i),
			Capacity:      1,
			Run:           run,
			ResultsServer: "none",
		})
		if err != nil {
			return c, err
		}
		c.workers = append(c.workers, w)
		ws.Config.Handler = tr.wrapHandler("worker.http", w.Handler())
		ws.Start()
		if err := w.Register(context.Background()); err != nil {
			return c, err
		}
	}
	if got := c.sched.Metrics().BackendCapacity; got != 2 {
		return c, fmt.Errorf("cluster: server sees capacity %d, want 2", got)
	}
	return c, nil
}

// close stops the cluster: the server's scheduler first, so that no chunk
// is left waiting on a worker, then the listeners and the workers' pools.
func (c *cluster) close() {
	if c.sched != nil {
		c.sched.Close()
	}
	if c.srv != nil {
		c.srv.Close()
	}
	for _, ws := range c.wsrvs {
		ws.Close()
	}
	for _, w := range c.workers {
		w.Close()
	}
	if c.dir != "" {
		os.RemoveAll(c.dir)
	}
}

// interactive submits one spec with POST /v1/runs?wait=1 and returns the
// finished result.
func (c *cluster) interactive(client *http.Client, spec service.JobSpec, tr *tracer) (*sim.RunResult, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, c.srv.URL+"/v1/runs?wait=1", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	key := ""
	if tr != nil {
		key, _ = spec.Hash()
		req.Header.Set(keyHeader, key)
	}
	sp := tr.begin("bench.request", key, 0)
	defer sp.end()
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var view service.JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		return nil, fmt.Errorf("HTTP %d: %w", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK || view.Status != service.StatusDone || view.Result == nil {
		return nil, fmt.Errorf("HTTP %d, job %s: %s", resp.StatusCode, view.Status, view.Error)
	}
	return view.Result, nil
}

// flood runs one flood sweep in the server's scheduler, calling onDone for
// each finished cell, until the sweep ends or ctx is canceled.
func (c *cluster) flood(ctx context.Context, matrix [][]service.JobSpec, onDone func(service.SweepEvent)) error {
	sw, err := c.sched.StartSweep(ctx, matrix, service.SweepOptions{})
	if err != nil {
		return err
	}
	err = sw.Stream(ctx, true, func(ev service.SweepEvent) error {
		if ev.Status == service.StatusCanceled {
			return nil
		}
		if ev.Status != service.StatusDone || ev.Result == nil {
			return fmt.Errorf("cell (%d,%d) %s: %s", ev.Row, ev.Col, ev.Status, ev.Error)
		}
		onDone(ev)
		return nil
	})
	if errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}
