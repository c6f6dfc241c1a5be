package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"constable/internal/sim"
)

func newTestServer(t *testing.T, cfg Config, fn func(sim.Options) (*sim.RunResult, error)) (*httptest.Server, *Scheduler) {
	t.Helper()
	var s *Scheduler
	if fn != nil {
		s = newStubScheduler(t, cfg, fn)
	} else {
		s = New(cfg)
		t.Cleanup(func() { s.Close() })
	}
	srv := httptest.NewServer(NewHandler(s))
	t.Cleanup(srv.Close)
	return srv, s
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeJob(t *testing.T, resp *http.Response) JobView {
	t.Helper()
	defer resp.Body.Close()
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestAPISubmitPollResult(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 2}, countingRun(new(atomic.Uint64)))
	spec := JobSpec{Workload: testWorkload(t), Mechanism: "constable", Instructions: 5000}

	resp := postJSON(t, srv.URL+"/v1/runs", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	job := decodeJob(t, resp)
	if job.ID == "" || job.Hash == "" {
		t.Fatalf("submit response missing id/hash: %+v", job)
	}

	// Poll until done.
	deadline := time.Now().Add(10 * time.Second)
	for {
		r, err := http.Get(srv.URL + "/v1/runs/" + job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode != http.StatusOK {
			t.Fatalf("poll status %d", r.StatusCode)
		}
		job = decodeJob(t, r)
		if job.Status == StatusDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in status %s", job.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if job.Result == nil || job.Result.Cycles != 5000 {
		t.Errorf("result = %+v, want cycles 5000 from stub", job.Result)
	}
}

func TestAPIResultEndpoint(t *testing.T) {
	// A real scheduler (no stub), so the result document carries the full
	// RunResult schema: identity, config digest, counters, mechanisms.
	srv, _ := newTestServer(t, Config{Workers: 2}, nil)
	spec := JobSpec{Workload: testWorkload(t), Mechanism: "constable", Instructions: 3000}

	job := decodeJob(t, postJSON(t, srv.URL+"/v1/runs?wait=1", spec))
	if job.Status != StatusDone {
		t.Fatalf("job not done: %+v", job)
	}

	r, err := http.Get(srv.URL + "/v1/runs/" + job.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("result status %d, want 200", r.StatusCode)
	}
	var res sim.RunResult
	if err := json.NewDecoder(r.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Identity.Workload != spec.Workload || res.Identity.Mechanism != "constable" {
		t.Errorf("identity = %+v", res.Identity)
	}
	if res.ConfigDigest == "" || res.Cycles == 0 {
		t.Errorf("digest %q cycles %d", res.ConfigDigest, res.Cycles)
	}
	if res.Counters.Get("pipeline.retired") == 0 {
		t.Errorf("counter snapshot missing pipeline.retired: %v", res.Counters.Names())
	}
	found := false
	for _, m := range res.Mechanisms {
		if m.Name == "constable" && len(m.Counters) > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("per-mechanism breakdown missing constable: %+v", res.Mechanisms)
	}

	if r, err = http.Get(srv.URL + "/v1/runs/job-999/result"); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job result: status %d, want 404", r.StatusCode)
	}
}

func TestAPIResultNotReady(t *testing.T) {
	gate := make(chan struct{})
	srv, _ := newTestServer(t, Config{Workers: 1}, func(opts sim.Options) (*sim.RunResult, error) {
		<-gate
		return &sim.RunResult{}, nil
	})
	defer close(gate)

	job := decodeJob(t, postJSON(t, srv.URL+"/v1/runs",
		JobSpec{Workload: testWorkload(t), Instructions: 1000}))
	r, err := http.Get(srv.URL + "/v1/runs/" + job.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusConflict {
		t.Errorf("unfinished result: status %d, want 409", r.StatusCode)
	}
}

func TestAPIWaitAndCacheHitViaMetrics(t *testing.T) {
	var calls atomic.Uint64
	srv, _ := newTestServer(t, Config{Workers: 2}, countingRun(&calls))
	spec := JobSpec{Workload: testWorkload(t), Mechanism: "constable", Instructions: 7000}

	// First submission simulates; second is a cache hit. Both return the
	// same result and only one simulation ran.
	for i := 0; i < 2; i++ {
		resp := postJSON(t, srv.URL+"/v1/runs?wait=1", spec)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %d: status %d, want 200", i, resp.StatusCode)
		}
		job := decodeJob(t, resp)
		if job.Status != StatusDone || job.Result == nil {
			t.Fatalf("submit %d: job not done: %+v", i, job)
		}
		if i == 1 && !job.CacheHit {
			t.Error("second identical submission was not marked cache_hit")
		}
	}
	if calls.Load() != 1 {
		t.Errorf("two identical submissions ran %d simulations, want 1", calls.Load())
	}

	r, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(r.Body)
	metrics := buf.String()
	for _, want := range []string{
		"constable_jobs_submitted_total 2",
		"constable_jobs_completed_total 1",
		"constable_cache_hits_total 1",
		"constable_cache_hit_rate 0.5",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

func TestAPIBatch(t *testing.T) {
	var calls atomic.Uint64
	srv, sched := newTestServer(t, Config{Workers: 4}, countingRun(&calls))
	name := testWorkload(t)

	specs := []JobSpec{
		{Workload: name, Mechanism: "baseline", Instructions: 3000},
		{Workload: name, Mechanism: "constable", Instructions: 3000},
		{Workload: name, Mechanism: "baseline", Instructions: 3000}, // duplicate of [0]
	}
	resp := postJSON(t, srv.URL+"/v1/runs/batch", specs)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch status %d, want 202", resp.StatusCode)
	}
	defer resp.Body.Close()
	var views []JobView
	if err := json.NewDecoder(resp.Body).Decode(&views); err != nil {
		t.Fatal(err)
	}
	if len(views) != 3 {
		t.Fatalf("batch returned %d jobs, want 3", len(views))
	}
	// The duplicate either shares the original's job (in-flight dedup) or is
	// a cache hit; either way the hashes match and only two sims run.
	if views[0].Hash != views[2].Hash {
		t.Error("duplicate specs in one batch hashed differently")
	}
	for _, v := range views {
		j, ok := sched.Get(v.ID)
		if !ok {
			t.Fatalf("job %s not found", v.ID)
		}
		if _, err := j.Wait(t.Context()); err != nil {
			t.Fatal(err)
		}
	}
	if calls.Load() != 2 {
		t.Errorf("batch of 3 (one duplicate) ran %d simulations, want 2", calls.Load())
	}
}

func TestAPIBadRequests(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 1}, countingRun(new(atomic.Uint64)))
	name := testWorkload(t)

	for _, tc := range []struct {
		name string
		do   func() *http.Response
	}{
		{"malformed JSON", func() *http.Response {
			r, err := http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader("{nope"))
			if err != nil {
				t.Fatal(err)
			}
			return r
		}},
		{"unknown workload", func() *http.Response {
			return postJSON(t, srv.URL+"/v1/runs", JobSpec{Workload: "no-such-workload"})
		}},
		{"unknown mechanism", func() *http.Response {
			return postJSON(t, srv.URL+"/v1/runs", JobSpec{Workload: name, Mechanism: "warp-drive"})
		}},
		{"bad thread count", func() *http.Response {
			return postJSON(t, srv.URL+"/v1/runs", JobSpec{Workload: name, Threads: 5})
		}},
		{"empty batch", func() *http.Response {
			return postJSON(t, srv.URL+"/v1/runs/batch", []JobSpec{})
		}},
		{"stale trace name (run)", func() *http.Response {
			return postJSON(t, srv.URL+"/v1/runs", JobSpec{Workload: staleTraceName})
		}},
		{"stale trace name (sweep)", func() *http.Response {
			return postJSON(t, srv.URL+"/v1/sweeps", SweepRequest{Workloads: []string{staleTraceName}})
		}},
	} {
		resp := tc.do()
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}

	r, err := http.Get(srv.URL + "/v1/runs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", r.StatusCode)
	}
}

// staleTraceName has the shape of a workload name that referenced an
// uploaded trace by its sha256. No such workload exists.
var staleTraceName = "trace:" + strings.Repeat("ab", 32)

func TestAPIBodyLimits(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 1, MaxBody: 256}, countingRun(new(atomic.Uint64)))
	name := testWorkload(t)

	// JSON endpoints cut an oversized body off with a 413 JSON error.
	huge := fmt.Sprintf(`{"workload":%q,"instructions":1000,"mechanism":"%s"}`,
		name, strings.Repeat("x", 512))
	resp, err := http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized run spec: status %d (%s), want 413", resp.StatusCode, body)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("413 response is not a JSON error: %q", body)
	}

	// Within the limit the same route still works.
	resp = postJSON(t, srv.URL+"/v1/runs", JobSpec{Workload: name, Instructions: 1000})
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("in-limit run spec: status %d, want 202", resp.StatusCode)
	}
}

func TestAPIWorkloadsAndMechanisms(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 1}, countingRun(new(atomic.Uint64)))

	r, err := http.Get(srv.URL + "/v1/workloads")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var wls []map[string]string
	if err := json.NewDecoder(r.Body).Decode(&wls); err != nil {
		t.Fatal(err)
	}
	if len(wls) != 90 {
		t.Errorf("listed %d workloads, want 90", len(wls))
	}
	for _, wl := range wls {
		if len(wl) != 2 || wl["name"] == "" || wl["category"] == "" {
			t.Fatalf("workload entry %v, want exactly a name and a category", wl)
		}
	}

	r2, err := http.Get(srv.URL + "/v1/mechanisms")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	var mechs struct {
		Presets []struct {
			Name        string `json:"name"`
			Description string `json:"description"`
		} `json:"presets"`
		Axes []struct {
			Name     string `json:"name"`
			Default  string `json:"default"`
			Variants []struct {
				Name        string `json:"name"`
				Description string `json:"description"`
			} `json:"variants"`
			Params []struct {
				Name        string `json:"name"`
				Description string `json:"description"`
			} `json:"params"`
		} `json:"axes"`
	}
	if err := json.NewDecoder(r2.Body).Decode(&mechs); err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(mechs.Presets))
	for i, m := range mechs.Presets {
		names[i] = m.Name
		if m.Description == "" {
			t.Errorf("mechanism %q has no description", m.Name)
		}
	}
	if fmt.Sprint(names) != fmt.Sprint(MechanismNames()) {
		t.Errorf("mechanisms = %v, want %v", names, MechanismNames())
	}
	if len(mechs.Axes) != 3 {
		t.Fatalf("axes = %d, want 3", len(mechs.Axes))
	}
	for _, a := range mechs.Axes {
		if a.Default == "" || len(a.Variants) < 2 || len(a.Params) == 0 {
			t.Errorf("axis %q incomplete: %+v", a.Name, a)
		}
		for _, p := range a.Params {
			if p.Description == "" {
				t.Errorf("axis %q param %q has no description", a.Name, p.Name)
			}
		}
	}
}

// TestAPIWaitDisconnectCancelsSoleWaiter is the regression test for the
// abandoned-job bug: a ?wait=1 client that disconnects while its job is
// queued was leaving the job to simulate with no waiter. The sole-waiter
// job must now be canceled; a job shared with another submitter must keep
// running.
func TestAPIWaitDisconnectCancelsSoleWaiter(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	srv, sched := newTestServer(t, Config{Workers: 1}, func(opts sim.Options) (*sim.RunResult, error) {
		<-gate
		return &sim.RunResult{}, nil
	})
	name := testWorkload(t)

	// Wedge the single worker so everything else stays queued.
	blocker := decodeJob(t, postJSON(t, srv.URL+"/v1/runs", JobSpec{Workload: name, Instructions: 1000}))
	waitFor(t, 5*time.Second, func() bool {
		j, ok := sched.Get(blocker.ID)
		return ok && j.Status() == StatusRunning
	})

	// Sole waiter: submit via ?wait=1 only, then drop the connection.
	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(JobSpec{Workload: name, Instructions: 2000})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/runs?wait=1", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	waitFor(t, 5*time.Second, func() bool { return sched.QueueDepth() == 1 })
	cancel()
	<-errc
	waitFor(t, 5*time.Second, func() bool {
		m := sched.Metrics()
		return m.JobsCanceled == 1 && m.QueueDepth == 0
	})

	// Shared job: an async submitter holds interest, so a disconnecting
	// ?wait=1 duplicate must NOT cancel it.
	shared := decodeJob(t, postJSON(t, srv.URL+"/v1/runs", JobSpec{Workload: name, Instructions: 3000}))
	ctx2, cancel2 := context.WithCancel(context.Background())
	body2, _ := json.Marshal(JobSpec{Workload: name, Instructions: 3000})
	req2, err := http.NewRequestWithContext(ctx2, http.MethodPost, srv.URL+"/v1/runs?wait=1", bytes.NewReader(body2))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		resp, err := http.DefaultClient.Do(req2)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	waitFor(t, 5*time.Second, func() bool { return sched.Metrics().JobsDeduped == 1 })
	cancel2()
	<-errc
	time.Sleep(20 * time.Millisecond) // give a buggy cancellation time to land
	j, ok := sched.Get(shared.ID)
	if !ok || j.Status() != StatusQueued {
		t.Errorf("shared job status after duplicate waiter disconnected: %v (want queued)", j.Status())
	}
	if m := sched.Metrics(); m.JobsCanceled != 1 {
		t.Errorf("jobs canceled = %d, want 1 (shared job must survive)", m.JobsCanceled)
	}
}

func TestAPISweepLifecycle(t *testing.T) {
	var calls atomic.Uint64
	srv, _ := newTestServer(t, Config{Workers: 2}, countingRun(&calls))
	name := testWorkload(t)

	resp := postJSON(t, srv.URL+"/v1/sweeps", SweepRequest{
		Workloads:  []string{name},
		Mechanisms: []string{"baseline", "constable"},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep submit status %d, want 202", resp.StatusCode)
	}
	var view SweepView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if view.ID == "" || view.Total != 2 {
		t.Fatalf("sweep view %+v, want id and 2 cells", view)
	}

	// The event stream replays all cells and ends with the terminal view.
	r, err := http.Get(srv.URL + "/v1/sweeps/" + view.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if ct := r.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events Content-Type = %q", ct)
	}
	var cells, finals int
	sc := bufio.NewScanner(r.Body)
	for sc.Scan() {
		var line sweepStreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch {
		case line.Cell != nil:
			cells++
			if line.Cell.Status != StatusDone {
				t.Errorf("cell (%d,%d) status %s", line.Cell.Row, line.Cell.Col, line.Cell.Status)
			}
			if line.Cell.Result != nil {
				t.Error("event stream embedded results without ?results=1")
			}
		case line.Sweep != nil:
			finals++
			if line.Sweep.Status != SweepDone {
				t.Errorf("final line status %s, want done", line.Sweep.Status)
			}
		}
	}
	if cells != 2 || finals != 1 {
		t.Errorf("stream had %d cell lines and %d final lines, want 2 and 1", cells, finals)
	}

	// ?results=1 embeds each cell's RunResult.
	r2, err := http.Get(srv.URL + "/v1/sweeps/" + view.ID + "/events?results=1")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	sc = bufio.NewScanner(r2.Body)
	for sc.Scan() {
		var line sweepStreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		if line.Cell != nil && line.Cell.Result == nil {
			t.Error("?results=1 stream omitted a cell result")
		}
	}

	// Poll endpoint agrees.
	r3, err := http.Get(srv.URL + "/v1/sweeps/" + view.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Body.Close()
	if err := json.NewDecoder(r3.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if view.Status != SweepDone || view.Completed != 2 {
		t.Errorf("poll view %+v, want done/2", view)
	}

	// Bad requests.
	for _, body := range []any{SweepRequest{}, SweepRequest{Workloads: []string{"nope"}, Mechanisms: []string{"baseline"}}} {
		resp := postJSON(t, srv.URL+"/v1/sweeps", body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("invalid sweep %+v: status %d, want 400", body, resp.StatusCode)
		}
	}
	if r, err := http.Get(srv.URL + "/v1/sweeps/sweep-999"); err == nil {
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Errorf("unknown sweep: status %d, want 404", r.StatusCode)
		}
	}
}

// TestAPISweepStreamsBeforeFinish is the acceptance criterion that
// GET /v1/sweeps/{id}/events delivers cells while the sweep is still
// running — no full-matrix barrier in front of the stream.
func TestAPISweepStreamsBeforeFinish(t *testing.T) {
	gate := make(chan struct{})
	var started atomic.Uint64
	srv, sched := newTestServer(t, Config{Workers: 1}, func(opts sim.Options) (*sim.RunResult, error) {
		if started.Add(1) >= 2 {
			<-gate // every cell after the first wedges until released
		}
		return &sim.RunResult{Cycles: opts.Instructions}, nil
	})
	name := testWorkload(t)

	resp := postJSON(t, srv.URL+"/v1/sweeps", SweepRequest{
		Workloads:  []string{name},
		Mechanisms: []string{"baseline", "eves", "constable"},
	})
	var view SweepView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	r, err := http.Get(srv.URL + "/v1/sweeps/" + view.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	sc := bufio.NewScanner(r.Body)
	if !sc.Scan() {
		t.Fatal("stream closed before the first cell")
	}
	var first sweepStreamLine
	if err := json.Unmarshal(sc.Bytes(), &first); err != nil {
		t.Fatal(err)
	}
	if first.Cell == nil || first.Cell.Status != StatusDone {
		t.Fatalf("first streamed line %+v, want a done cell", first)
	}
	// The cell arrived while the sweep is verifiably still running.
	sw, ok := sched.GetSweep(view.ID)
	if !ok {
		t.Fatal("sweep vanished")
	}
	if sw.Status() != SweepRunning {
		t.Errorf("sweep status %s when the first cell streamed, want running", sw.Status())
	}

	close(gate)
	var lines int
	for sc.Scan() {
		lines++
	}
	if lines != 3 { // two remaining cells + final sweep line
		t.Errorf("read %d lines after release, want 3", lines)
	}
	if sw.Status() != SweepDone {
		t.Errorf("final sweep status %s, want done", sw.Status())
	}
}

func TestAPISweepCancel(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	srv, sched := newTestServer(t, Config{Workers: 1}, func(opts sim.Options) (*sim.RunResult, error) {
		<-gate
		return &sim.RunResult{}, nil
	})
	name := testWorkload(t)

	resp := postJSON(t, srv.URL+"/v1/sweeps", SweepRequest{
		Workloads:  []string{name},
		Mechanisms: []string{"baseline", "eves", "constable"},
	})
	var view SweepView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/sweeps/"+view.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d, want 200", dresp.StatusCode)
	}
	sw, _ := sched.GetSweep(view.ID)
	select {
	case <-sw.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("canceled sweep never drained")
	}
	if sw.Status() != SweepCanceled {
		t.Errorf("status %s, want canceled", sw.Status())
	}
	if depth := sched.QueueDepth(); depth != 0 {
		t.Errorf("queue depth %d after sweep cancel, want 0", depth)
	}
}

func TestAPICancel(t *testing.T) {
	gate := make(chan struct{})
	srv, _ := newTestServer(t, Config{Workers: 1}, func(opts sim.Options) (*sim.RunResult, error) {
		<-gate
		return &sim.RunResult{}, nil
	})
	defer close(gate)
	name := testWorkload(t)

	blocker := decodeJob(t, postJSON(t, srv.URL+"/v1/runs", JobSpec{Workload: name, Instructions: 1000}))
	victim := decodeJob(t, postJSON(t, srv.URL+"/v1/runs", JobSpec{Workload: name, Instructions: 2000}))

	// Wait for the blocker to occupy the single worker, so the victim is
	// deterministically queued.
	deadline := time.Now().Add(5 * time.Second)
	for {
		r, err := http.Get(srv.URL + "/v1/runs/" + blocker.ID)
		if err != nil {
			t.Fatal(err)
		}
		if decodeJob(t, r).Status == StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(time.Millisecond)
	}

	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/runs/"+victim.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	v := decodeJob(t, resp)
	if resp.StatusCode != http.StatusOK || v.Status != StatusCanceled {
		t.Errorf("cancel: status %d job %+v, want 200/canceled", resp.StatusCode, v)
	}
}
