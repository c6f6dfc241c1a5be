package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"constable/internal/sim"
	"constable/internal/stats"
)

// batchRecorder is a scriptable batch-aware Backend: it records every chunk
// it receives (the hashes, in dispatch order), optionally holds each chunk
// at a gate, and lets tests script per-cell and chunk-level outcomes.
type batchRecorder struct {
	name string
	cap  int

	mu     sync.Mutex
	chunks [][]string
	// gate, when non-nil, blocks each chunk after it is recorded until the
	// channel is closed.
	gate chan struct{}
	// cell produces one cell's outcome (defaults to okResult-shaped).
	cell func(spec JobSpec, hash string) BatchResult
	// chunkErr, when non-nil, fails the whole chunk with its return (nil =
	// proceed per cell). It sees the chunk index (0-based dispatch order).
	chunkErr func(chunkIndex int) error
}

func (b *batchRecorder) Name() string  { return b.name }
func (b *batchRecorder) Capacity() int { return b.cap }

func (b *batchRecorder) Execute(ctx context.Context, spec JobSpec, hash string) (*sim.RunResult, error) {
	res, err := b.ExecuteBatch(ctx, []JobSpec{spec}, []string{hash})
	if err != nil {
		return nil, err
	}
	return res[0].Result, res[0].Err
}

func (b *batchRecorder) ExecuteBatch(ctx context.Context, specs []JobSpec, hashes []string) ([]BatchResult, error) {
	b.mu.Lock()
	idx := len(b.chunks)
	b.chunks = append(b.chunks, append([]string(nil), hashes...))
	gate := b.gate
	b.mu.Unlock()
	if gate != nil {
		<-gate
	}
	if b.chunkErr != nil {
		if err := b.chunkErr(idx); err != nil {
			return nil, err
		}
	}
	out := make([]BatchResult, len(specs))
	for i := range specs {
		if b.cell != nil {
			out[i] = b.cell(specs[i], hashes[i])
			continue
		}
		out[i] = BatchResult{Result: &sim.RunResult{Cycles: specs[i].Instructions}}
	}
	return out, nil
}

func (b *batchRecorder) recorded() [][]string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([][]string, len(b.chunks))
	copy(out, b.chunks)
	return out
}

// TestChunkedDispatchAdaptiveSizing pins the tentpole's dispatch shape: a
// backlog of queued cells reaches a capacity-2 worker as capacity-sized
// chunks — never the whole queue, never one cell at a time, and never more
// than one chunk's worth per grant (the 2×capacity budget exists so two
// chunks overlap, not so one double-sized chunk monopolizes the slot).
func TestChunkedDispatchAdaptiveSizing(t *testing.T) {
	s := newDispatchScheduler(t)
	name := testWorkload(t)

	var jobs []*Job
	for i := 0; i < 10; i++ {
		j, err := s.Submit(JobSpec{Workload: name, Instructions: uint64(1000 + i)})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	// All ten queued before any capacity exists, so chunk sizes are
	// deterministic once the worker appears.
	br := &batchRecorder{name: "br", cap: 2}
	s.Backend().AddWorker("br", "fake://br", br.cap, br)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, j := range jobs {
		if _, err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}

	chunks := br.recorded()
	if len(chunks) != 5 {
		t.Fatalf("chunks = %d (%v cells each), want 5", len(chunks), chunkSizes(chunks))
	}
	for i, c := range chunks {
		if len(c) != 2 {
			t.Errorf("chunk %d carried %d cells, want 2 (capacity-sized)", i, len(c))
		}
	}
	m := s.Metrics()
	if m.BatchesDispatched != 5 || m.BatchCells != 10 {
		t.Errorf("batch metrics = %d chunks / %d cells, want 5/10", m.BatchesDispatched, m.BatchCells)
	}
}

func chunkSizes(chunks [][]string) []int {
	out := make([]int, len(chunks))
	for i, c := range chunks {
		out[i] = len(c)
	}
	return out
}

// TestPerCellModeDisablesChunking pins MaxBatch: 1 — the PR-4 dispatch
// cadence stays available, and the batch metrics stay silent.
func TestPerCellModeDisablesChunking(t *testing.T) {
	s, err := Open(Config{Workers: -1, WorkerTTL: time.Hour, MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	name := testWorkload(t)

	var jobs []*Job
	for i := 0; i < 6; i++ {
		j, err := s.Submit(JobSpec{Workload: name, Instructions: uint64(2000 + i)})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	br := &batchRecorder{name: "br", cap: 2}
	s.Backend().AddWorker("br", "fake://br", br.cap, br)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, j := range jobs {
		if _, err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range br.recorded() {
		if len(c) != 1 {
			t.Errorf("chunk %d carried %d cells, want 1 in per-cell mode", i, len(c))
		}
	}
	m := s.Metrics()
	if m.BatchesDispatched != 0 || m.BatchCells != 0 {
		t.Errorf("batch metrics = %d/%d, want 0/0 in per-cell mode", m.BatchesDispatched, m.BatchCells)
	}
}

// TestChunkRequeueDropsAbandonedCells pins the tentpole's failure
// semantics: when a whole chunk dies at the transport level, the cells
// every submitter has abandoned are dropped from the chunk (canceled), the
// live cells requeue in their original order, and the retry chunk carries
// exactly the survivors.
func TestChunkRequeueDropsAbandonedCells(t *testing.T) {
	s := newDispatchScheduler(t)
	name := testWorkload(t)

	gate := make(chan struct{})
	var gateOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(gate) }) }
	t.Cleanup(openGate)
	doomed := &batchRecorder{
		name: "doomed", cap: 3, gate: gate,
		chunkErr: func(int) error {
			return fmt.Errorf("%w: worker killed mid-chunk", ErrBackendUnavailable)
		},
	}

	// The cells queue before the worker registers, so they go out as one
	// chunk.
	var jobs []*Job
	for i := 0; i < 3; i++ {
		j, err := s.Submit(JobSpec{Workload: name, Instructions: uint64(3000 + i)})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	s.Backend().AddWorker("doomed", "fake://doomed", doomed.cap, doomed)

	// Wait for the whole chunk (3 cells ≤ the capacity-3 grant) to be in
	// flight.
	deadline := time.Now().Add(5 * time.Second)
	for len(doomed.recorded()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("chunk never dispatched")
		}
		time.Sleep(time.Millisecond)
	}
	if got := len(doomed.recorded()[0]); got != 3 {
		t.Fatalf("first chunk carried %d cells, want 3", got)
	}

	// The middle cell's only submitter walks away mid-flight; then the
	// worker dies. The chunk must not be requeued wholesale.
	s.Abandon(jobs[1].ID)
	honest := &batchRecorder{name: "honest", cap: 3}
	s.Backend().AddWorker("honest", "fake://honest", honest.cap, honest)
	openGate()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, i := range []int{0, 2} {
		if _, err := jobs[i].Wait(ctx); err != nil {
			t.Fatalf("surviving cell %d: %v", i, err)
		}
	}
	if _, err := jobs[1].Wait(ctx); !errors.Is(err, ErrCanceled) {
		t.Fatalf("abandoned cell's terminal error = %v, want ErrCanceled", err)
	}

	m := s.Metrics()
	if m.JobsRequeued != 2 {
		t.Errorf("requeued = %d, want 2 (the un-abandoned cells)", m.JobsRequeued)
	}
	if m.JobsCanceled != 1 {
		t.Errorf("canceled = %d, want 1 (the abandoned cell)", m.JobsCanceled)
	}
	// The survivors retried together, in their original relative order.
	hc := honest.recorded()
	if len(hc) != 1 || len(hc[0]) != 2 ||
		hc[0][0] != jobs[0].Hash || hc[0][1] != jobs[2].Hash {
		t.Errorf("retry chunks = %v, want one chunk [%s %s]", hc, jobs[0].Hash, jobs[2].Hash)
	}
}

// TestMixedChunkFailsOnlyBadCell pins per-cell failure granularity: one
// cell whose simulation fails terminally must not requeue — or fail — its
// chunk siblings.
func TestMixedChunkFailsOnlyBadCell(t *testing.T) {
	s := newDispatchScheduler(t)
	name := testWorkload(t)

	const badBudget = 6666
	br := &batchRecorder{
		name: "br", cap: 3,
		cell: func(spec JobSpec, hash string) BatchResult {
			if spec.Instructions == badBudget {
				return BatchResult{Err: errors.New("simulation exploded")}
			}
			return BatchResult{Result: &sim.RunResult{Cycles: spec.Instructions}}
		},
	}

	var jobs []*Job
	for _, insts := range []uint64{4000, badBudget, 4001} {
		j, err := s.Submit(JobSpec{Workload: name, Instructions: insts})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	s.Backend().AddWorker("br", "fake://br", br.cap, br)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, i := range []int{0, 2} {
		res, err := jobs[i].Wait(ctx)
		if err != nil {
			t.Fatalf("sibling cell %d failed: %v", i, err)
		}
		if res.Cycles != jobs[i].Spec.Instructions {
			t.Errorf("sibling cell %d cycles = %d", i, res.Cycles)
		}
	}
	if _, err := jobs[1].Wait(ctx); err == nil || err.Error() != "simulation exploded" {
		t.Fatalf("bad cell error = %v, want its own terminal failure", err)
	}

	m := s.Metrics()
	if m.JobsRequeued != 0 {
		t.Errorf("requeued = %d, want 0 (a terminal cell must not bounce its chunk)", m.JobsRequeued)
	}
	if m.JobsFailed != 1 || m.JobsCompleted != 2 {
		t.Errorf("failed/completed = %d/%d, want 1/2", m.JobsFailed, m.JobsCompleted)
	}
}

// TestAllUnavailableChunkDemotesWorker pins the failure-backoff contract
// for batches: a chunk whose every cell comes back backend-unavailable —
// the shape an unreachable worker produces through the per-cell fallback,
// or a broken worker answering 200 with nothing but requeue items — must
// demote the worker exactly like a chunk-level transport error, or the
// dispatcher hot-loops dispatch→fail→requeue against it with no backoff.
func TestAllUnavailableChunkDemotesWorker(t *testing.T) {
	s := newDispatchScheduler(t)
	name := testWorkload(t)

	broken := &batchRecorder{
		name: "broken", cap: 2,
		cell: func(JobSpec, string) BatchResult {
			return BatchResult{Err: fmt.Errorf("%w: connection reset", ErrBackendUnavailable)}
		},
	}
	// Queue both cells before the worker registers, so the dispatcher hands
	// them over as one two-cell chunk. Submitted to a live worker, the first
	// cell could fail and demote it before the second is dispatched, leaving
	// the second parked with no healthy backend.
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(JobSpec{Workload: name, Instructions: uint64(9000 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	bv := s.Backend().AddWorker("broken", "fake://broken", broken.cap, broken)

	// Demotion and the second requeue are separate events: the worker can
	// be seen demoted before the last cell's requeue is counted, so wait for
	// both.
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, ok := s.Backend().Worker(bv.ID)
		if ok && !v.Healthy && v.Failures > 0 && s.Metrics().JobsRequeued >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never demoted with both cells requeued after an all-unavailable chunk: %+v, requeued = %d",
				v, s.Metrics().JobsRequeued)
		}
		time.Sleep(time.Millisecond)
	}
	if got := s.Metrics().JobsRequeued; got != 2 {
		t.Errorf("requeued = %d, want 2", got)
	}
}

// workerStub is an httptest-backed fake constable-worker speaking the
// single and batch execute protocols with scriptable latency and per-spec
// failures.
func workerStub(t *testing.T, delay time.Duration, failBudget uint64) (*httptest.Server, *atomic.Int64, *atomic.Int64) {
	t.Helper()
	var conns, batchHits atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /execute", func(w http.ResponseWriter, r *http.Request) {
		var req ExecuteRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		time.Sleep(delay)
		if failBudget != 0 && req.Spec.Instructions == failBudget {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusUnprocessableEntity)
			json.NewEncoder(w).Encode(map[string]string{"error": "simulation exploded"})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(sim.NewResultEnvelope(req.Hash, &sim.RunResult{Cycles: req.Spec.Instructions}))
	})
	mux.HandleFunc("POST /execute/batch", func(w http.ResponseWriter, r *http.Request) {
		batchHits.Add(1)
		var req BatchExecuteRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		time.Sleep(delay)
		resp := BatchExecuteResponse{Items: make([]BatchExecuteItem, len(req.Items))}
		for i, it := range req.Items {
			if failBudget != 0 && it.Spec.Instructions == failBudget {
				resp.Items[i] = BatchExecuteItem{Error: "simulation exploded"}
				continue
			}
			env := sim.NewResultEnvelope(it.Hash, &sim.RunResult{Cycles: it.Spec.Instructions})
			resp.Items[i] = BatchExecuteItem{Envelope: &env}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(resp)
	})
	ts := httptest.NewUnstartedServer(mux)
	ts.Config.ConnState = func(c net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	return ts, &conns, &batchHits
}

// TestRemoteBackendReusesConnections is the connection-churn regression
// test: before the drain-before-close fix, every dispatch — including the
// success path, whose json.Decoder left the envelope's trailing newline
// unread — discarded its connection, so N dispatches cost N TCP dials.
// With draining and a capacity-sized idle pool, sequential dispatches
// (successes and error responses alike) ride one keep-alive connection.
func TestRemoteBackendReusesConnections(t *testing.T) {
	ts, conns, _ := workerStub(t, 0, 9999)
	r := NewRemoteBackend("w", ts.URL, 4)
	name := testWorkload(t)

	for i := 0; i < 4; i++ {
		if _, err := r.Execute(context.Background(), JobSpec{Workload: name, Instructions: uint64(5000 + i)}, fmt.Sprintf("h%d", i)); err != nil {
			t.Fatal(err)
		}
		// Error responses (422) must return their connection too.
		if _, err := r.Execute(context.Background(), JobSpec{Workload: name, Instructions: 9999}, "hfail"); err == nil {
			t.Fatal("failing spec did not error")
		}
	}
	// Batch dispatches share the same pool.
	specs := []JobSpec{{Workload: name, Instructions: 6000}, {Workload: name, Instructions: 6001}}
	if _, err := r.ExecuteBatch(context.Background(), specs, []string{"b0", "b1"}); err != nil {
		t.Fatal(err)
	}
	if got := conns.Load(); got > 2 {
		t.Errorf("server saw %d TCP connections for 9 sequential dispatches, want ≤2 (keep-alive reuse)", got)
	}
}

// TestRemoteBatchDeadlineScalesWithChunkSize is the timeout-misclassification
// regression test: the per-cell round-trip budget must scale with chunk
// size, so a large chunk that is merely slow is not mistaken for a wedged
// worker — while a single dispatch still times out at the per-cell budget.
func TestRemoteBatchDeadlineScalesWithChunkSize(t *testing.T) {
	ts, _, _ := workerStub(t, 300*time.Millisecond, 0)
	name := testWorkload(t)

	r := NewRemoteBackend("w", ts.URL, 4)
	r.timeout = 150 * time.Millisecond

	// Four cells → 600ms of budget; the 300ms chunk must land.
	specs := make([]JobSpec, 4)
	hashes := make([]string, 4)
	for i := range specs {
		specs[i] = JobSpec{Workload: name, Instructions: uint64(7000 + i)}
		hashes[i] = fmt.Sprintf("h%d", i)
	}
	results, err := r.ExecuteBatch(context.Background(), specs, hashes)
	if err != nil {
		t.Fatalf("chunk misclassified as wedged: %v", err)
	}
	for i, br := range results {
		if br.Err != nil {
			t.Fatalf("cell %d: %v", i, br.Err)
		}
	}

	// A single cell gets exactly one per-cell budget and must time out.
	_, err = r.Execute(context.Background(), specs[0], hashes[0])
	if err == nil || !errors.Is(err, ErrBackendUnavailable) {
		t.Fatalf("single dispatch past the per-cell budget = %v, want backend-unavailable timeout", err)
	}
}

// TestRemoteBatchFallsBackForOldWorkers pins mixed-version clusters: a
// worker without the batch endpoint answers 404 and the chunk degrades to
// per-cell dispatch — once, after which the probe result is remembered.
func TestRemoteBatchFallsBackForOldWorkers(t *testing.T) {
	var execHits atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /execute", func(w http.ResponseWriter, r *http.Request) {
		execHits.Add(1)
		var req ExecuteRequest
		json.NewDecoder(r.Body).Decode(&req)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(sim.NewResultEnvelope(req.Hash, &sim.RunResult{Cycles: req.Spec.Instructions}))
	})
	ts := httptest.NewServer(mux) // no /execute/batch route: an old worker
	t.Cleanup(ts.Close)
	name := testWorkload(t)

	r := NewRemoteBackend("old", ts.URL, 2)
	specs := []JobSpec{{Workload: name, Instructions: 8000}, {Workload: name, Instructions: 8001}}
	for round := 0; round < 2; round++ {
		results, err := r.ExecuteBatch(context.Background(), specs, []string{"h0", "h1"})
		if err != nil {
			t.Fatal(err)
		}
		for i, br := range results {
			if br.Err != nil || br.Result.Cycles != specs[i].Instructions {
				t.Fatalf("round %d cell %d: %+v", round, i, br)
			}
		}
	}
	if got := execHits.Load(); got != 4 {
		t.Errorf("per-cell fallback hits = %d, want 4", got)
	}
	r.mu.Lock()
	noBatch := r.noBatch
	r.mu.Unlock()
	if !noBatch {
		t.Error("404 fallback was not remembered")
	}
}

// TestStoreHitResultIsolation is the cache-aliasing regression test for the
// disk-store hit path: a result promoted from the persistent store into the
// LRU is handed to callers as an independent clone, so mutating a store-hit
// result (counters map, mechanism snapshots, scalar fields) and re-reading
// it — from the same job, the LRU, or the disk — always yields the
// pristine document.
func TestStoreHitResultIsolation(t *testing.T) {
	dir := t.TempDir()
	name := testWorkload(t)
	spec := JobSpec{Workload: name, Instructions: 12345}

	rich := func(o sim.Options) (*sim.RunResult, error) {
		return &sim.RunResult{
			Cycles:   o.Instructions,
			Counters: stats.Snapshot{"pipeline.retired": 42},
			Mechanisms: []sim.MechanismStats{
				{Name: "constable", Counters: stats.Snapshot{"constable.eliminated": 7}},
			},
		}, nil
	}

	first, err := Open(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	first.runFn = rich
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := first.RunSync(ctx, spec); err != nil {
		t.Fatal(err)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh scheduler with a cold LRU: the submit below is a disk-store
	// hit, promoted into the LRU on its way to the caller.
	second, err := Open(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { second.Close() })
	second.runFn = func(sim.Options) (*sim.RunResult, error) {
		return nil, errors.New("store hit expected; nothing should simulate")
	}

	j, err := second.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := j.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !j.CacheHit() {
		t.Fatal("expected a store hit")
	}

	// Vandalize every mutable layer of the caller's copy.
	got.Cycles = 0
	got.Counters["pipeline.retired"] = 999
	got.Counters["vandal"] = 1
	got.Mechanisms[0].Counters["constable.eliminated"] = 999

	check := func(label string, res *sim.RunResult) {
		t.Helper()
		if res == nil {
			t.Fatalf("%s: result missing", label)
		}
		if res.Cycles != 12345 {
			t.Errorf("%s: cycles = %d, want 12345", label, res.Cycles)
		}
		if v := res.Counters["pipeline.retired"]; v != 42 {
			t.Errorf("%s: counter = %d, want 42", label, v)
		}
		if _, ok := res.Counters["vandal"]; ok {
			t.Errorf("%s: vandal counter leaked through the promotion path", label)
		}
		if v := res.Mechanisms[0].Counters["constable.eliminated"]; v != 7 {
			t.Errorf("%s: mechanism counter = %d, want 7", label, v)
		}
	}

	// Re-read through every path that can observe the promoted result.
	reread, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	check("same job re-read", reread)
	j2, err := second.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	lru, err := j2.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	check("LRU hit after promotion", lru)
	check("quiet lookup", second.results.lookup(j.Hash, false))
}
