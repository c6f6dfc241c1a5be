package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"constable/internal/sim"
	"constable/internal/stats"
)

// specHash returns the canonical content hash a scheduler would file spec's
// result under.
func specHash(t testing.TB, spec JobSpec) string {
	t.Helper()
	canonical, err := spec.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	hash, err := canonical.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return hash
}

// putEnvelope PUTs body to {srv}/v1/results/{hash} and returns the response.
func putEnvelope(t testing.TB, srvURL, hash string, body []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, srvURL+"/v1/results/"+hash, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestResultsEndpointRoundTrip covers the read side of the cluster store:
// a miss 404s (and is counted), and once the cell has simulated the endpoint
// serves a verified envelope out of the same tiers Submit reads.
func TestResultsEndpointRoundTrip(t *testing.T) {
	srv, s := newTestServer(t, Config{Workers: 2}, countingRun(new(atomic.Uint64)))
	spec := JobSpec{Workload: testWorkload(t), Mechanism: "constable", Instructions: 5000}
	hash := specHash(t, spec)

	resp, err := http.Get(srv.URL + "/v1/results/" + hash)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cold store GET: HTTP %d, want 404", resp.StatusCode)
	}

	if _, err := s.RunSync(t.Context(), spec); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(srv.URL + "/v1/results/" + hash)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm store GET: HTTP %d, want 200", resp.StatusCode)
	}
	var env sim.ResultEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	res, err := env.Open(hash)
	if err != nil {
		t.Fatalf("served envelope failed verification: %v", err)
	}
	if res.Cycles != 5000 {
		t.Errorf("served cycles = %d, want 5000", res.Cycles)
	}
	m := s.Metrics()
	if m.StoreRemoteHits != 1 || m.StoreRemoteMisses != 1 {
		t.Errorf("remote hits/misses = %d/%d, want 1/1", m.StoreRemoteHits, m.StoreRemoteMisses)
	}
}

// TestResultsWriteBackIdempotentAndVerified covers the write side: a first
// PUT files the result (201) and answers later submissions without any
// simulation, a repeat PUT is an idempotent 200, and an envelope whose hash
// or schema fails verification is refused and counted — the server-side
// half of the alias defense.
func TestResultsWriteBackIdempotentAndVerified(t *testing.T) {
	srv, s := newTestServer(t, Config{Workers: 1, DataDir: t.TempDir()}, func(sim.Options) (*sim.RunResult, error) {
		t.Error("a written-back result was re-simulated")
		return nil, errors.New("unexpected simulation")
	})
	spec := JobSpec{Workload: testWorkload(t), Instructions: 9000}
	hash := specHash(t, spec)
	body, err := json.Marshal(sim.NewResultEnvelope(hash, &sim.RunResult{Cycles: 777}))
	if err != nil {
		t.Fatal(err)
	}

	resp := putEnvelope(t, srv.URL, hash, body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first write-back: HTTP %d, want 201", resp.StatusCode)
	}
	resp = putEnvelope(t, srv.URL, hash, body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat write-back: HTTP %d, want 200", resp.StatusCode)
	}
	var ack struct {
		Dedup bool `json:"dedup"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil || !ack.Dedup {
		t.Errorf("repeat write-back ack dedup = %v (err %v), want true", ack.Dedup, err)
	}

	// The written-back result answers a submission as a cache hit; the
	// failing runFn above proves nothing simulates.
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := j.Wait(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if !j.CacheHit() || got.Cycles != 777 {
		t.Errorf("submission after write-back: cacheHit=%v cycles=%d, want true/777", j.CacheHit(), got.Cycles)
	}

	// Aliasing: the same valid envelope PUT under a different hash must be
	// refused — accepting it would file one spec's result under another's
	// content address.
	alias := strings.Repeat("ef", 32)
	resp = putEnvelope(t, srv.URL, alias, body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("aliased write-back: HTTP %d, want 400", resp.StatusCode)
	}
	if res := s.results.lookup(alias, false); res != nil {
		t.Error("aliased write-back was stored")
	}

	// Wrong schema version: treated as absent, refused.
	env := sim.NewResultEnvelope(hash, &sim.RunResult{Cycles: 777})
	env.Schema = 99
	b99, _ := json.Marshal(env)
	resp = putEnvelope(t, srv.URL, hash, b99)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("wrong-schema write-back: HTTP %d, want 400", resp.StatusCode)
	}

	m := s.Metrics()
	if m.StoreRemoteWritebacks != 2 || m.StoreRemoteRejected != 2 {
		t.Errorf("writebacks/rejected = %d/%d, want 2/2", m.StoreRemoteWritebacks, m.StoreRemoteRejected)
	}
}

// TestShareConsultedOncePerHash piles 32 concurrent submissions of one spec
// onto a scheduler whose share upstream holds its first GET, and requires
// exactly one GET: the scheduler reserves the hash before consulting the
// share, so every other submitter dedups onto the reserved job instead of
// asking again. Every submitter still receives an independent copy of the
// result, and a later submission is answered by the promoted LRU entry.
func TestShareConsultedOncePerHash(t *testing.T) {
	spec := JobSpec{Workload: testWorkload(t), Mechanism: "constable", Instructions: 4321}
	hash := specHash(t, spec)
	want := fullResult()
	var gets atomic.Int32
	release := make(chan struct{})
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if gets.Add(1) == 1 {
			<-release
		}
		writeJSON(w, http.StatusOK, sim.NewResultEnvelope(hash, want))
	}))
	t.Cleanup(upstream.Close)
	t.Cleanup(func() { close(release) })

	s, err := Open(Config{Workers: 1, Share: NewRemoteResultStore(upstream.URL)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	s.runFn = func(sim.Options) (*sim.RunResult, error) {
		return nil, errors.New("share hit expected; nothing should simulate")
	}

	const submitters = 32
	jobs := make([]*Job, submitters)
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j, err := s.Submit(spec)
			if err != nil {
				t.Error(err)
				return
			}
			jobs[i] = j
		}()
	}
	// The first submitter is parked in the held GET; everyone else has
	// deduped onto its reserved job.
	waitFor(t, 5*time.Second, func() bool { return s.Metrics().JobsDeduped == submitters-1 })
	release <- struct{}{}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	results := make([]*sim.RunResult, submitters)
	for i, j := range jobs {
		if results[i], err = j.Wait(t.Context()); err != nil || !j.CacheHit() {
			t.Fatalf("submitter %d: err=%v cacheHit=%v", i, err, j.CacheHit())
		}
	}
	if gets.Load() != 1 {
		t.Errorf("%d concurrent submissions issued %d GETs, want 1", submitters, gets.Load())
	}
	// Deduped submitters must not alias: vandalize one copy, check another.
	results[0].Counters["pipeline.retired"] = 999
	results[0].Cycles = 0
	if results[1].Cycles != want.Cycles || results[1].Counters["pipeline.retired"] != want.Counters["pipeline.retired"] {
		t.Error("deduped submitters share one result document")
	}

	if _, err := s.RunSync(t.Context(), spec); err != nil {
		t.Fatal(err)
	}
	if gets.Load() != 1 {
		t.Errorf("resubmission reached the share: %d GETs, want 1", gets.Load())
	}
	if m := s.Metrics(); m.StoreRemoteHits != 1 || m.CacheHits != 1 {
		t.Errorf("remote hits/cache hits = %d/%d, want 1/1", m.StoreRemoteHits, m.CacheHits)
	}
}

// TestQuietLookupsLeaveTierCounters pins the counting rule of the result
// tiers: only Submit counts LRU and store hits and misses. The dispatch-time
// recheck, GET /v1/results, a finished sweep's replay and the PUT
// idempotency probe all read quietly. It runs with the LRU enabled and
// disabled, so the quiet reads are served by each local tier in turn.
func TestQuietLookupsLeaveTierCounters(t *testing.T) {
	for _, tc := range []struct {
		name      string
		cacheSize int
		// resubmit is the counter delta of submitting a finished spec again.
		resubmit tierCounters
	}{
		{"lru", 0, tierCounters{cacheHits: 1}},
		{"store only", -1, tierCounters{cacheMisses: 1, storeHits: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gate := make(chan struct{})
			var gateOnce sync.Once
			openGate := func() { gateOnce.Do(func() { close(gate) }) }
			t.Cleanup(openGate)
			srv, s := newTestServer(t, Config{Workers: 1, CacheSize: tc.cacheSize, DataDir: t.TempDir()},
				func(o sim.Options) (*sim.RunResult, error) {
					if o.Instructions == 1000 {
						<-gate
					}
					return &sim.RunResult{Cycles: o.Instructions}, nil
				})
			name := testWorkload(t)
			specA := JobSpec{Workload: name, Instructions: 3000}
			sw, err := s.StartSweep(t.Context(), [][]JobSpec{{specA}}, SweepOptions{})
			if err != nil {
				t.Fatal(err)
			}
			<-sw.Done()
			if got := countersOf(s); got != (tierCounters{cacheMisses: 1, storeMisses: 1}) {
				t.Fatalf("after the first submission: %+v, want one LRU and one store miss", got)
			}

			// The blocker holds the only slot; B queues behind it.
			blocker, err := s.Submit(JobSpec{Workload: name, Instructions: 1000})
			if err != nil {
				t.Fatal(err)
			}
			waitFor(t, 5*time.Second, func() bool { return s.Running() == 1 })
			specB := JobSpec{Workload: name, Instructions: 2000}
			jb, err := s.Submit(specB)
			if err != nil {
				t.Fatal(err)
			}
			before := countersOf(s)

			// PUT: the idempotency probe misses, then hits.
			hashB := specHash(t, specB)
			body, _ := json.Marshal(sim.NewResultEnvelope(hashB, &sim.RunResult{Cycles: 4242}))
			for _, want := range []int{http.StatusCreated, http.StatusOK} {
				resp := putEnvelope(t, srv.URL, hashB, body)
				resp.Body.Close()
				if resp.StatusCode != want {
					t.Fatalf("write-back: HTTP %d, want %d", resp.StatusCode, want)
				}
			}
			// GET /v1/results: a hit and a miss.
			for hash, want := range map[string]int{specHash(t, specA): http.StatusOK, strings.Repeat("ab", 32): http.StatusNotFound} {
				resp, err := http.Get(srv.URL + "/v1/results/" + hash)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != want {
					t.Fatalf("GET /v1/results: HTTP %d, want %d", resp.StatusCode, want)
				}
			}
			// Replay of the finished sweep, with results.
			var replayed *sim.RunResult
			if err := sw.Stream(t.Context(), true, func(ev SweepEvent) error {
				replayed = ev.Result
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if replayed == nil || replayed.Cycles != 3000 {
				t.Fatalf("replayed result = %+v, want cycles 3000", replayed)
			}
			// The dispatch recheck finds B's written-back result.
			openGate()
			resB, err := jb.Wait(t.Context())
			if err != nil {
				t.Fatal(err)
			}
			if !jb.CacheHit() || resB.Cycles != 4242 {
				t.Fatalf("B: cacheHit=%v cycles=%d, want a dispatch-time short-circuit with 4242", jb.CacheHit(), resB.Cycles)
			}
			if _, err := blocker.Wait(t.Context()); err != nil {
				t.Fatal(err)
			}
			if got := countersOf(s); got != before {
				t.Errorf("quiet lookups moved the tier counters: %+v, want %+v", got, before)
			}

			// Submit still counts.
			if _, err := s.RunSync(t.Context(), specA); err != nil {
				t.Fatal(err)
			}
			want := before
			want.cacheHits += tc.resubmit.cacheHits
			want.cacheMisses += tc.resubmit.cacheMisses
			want.storeHits += tc.resubmit.storeHits
			if got := countersOf(s); got != want {
				t.Errorf("after resubmitting A: %+v, want %+v", got, want)
			}
		})
	}
}

// tierCounters are the local result tiers' hit and miss counters.
type tierCounters struct {
	cacheHits, cacheMisses, storeHits, storeMisses uint64
}

func countersOf(s *Scheduler) tierCounters {
	m := s.Metrics()
	return tierCounters{m.CacheHits, m.CacheMisses, m.StoreHits, m.StoreMisses}
}

// TestParallelWriteBacksSameHash hammers one hash with concurrent PUT
// write-backs and concurrent GETs against a real handler (run under -race in
// CI): every request succeeds, and the store ends with exactly one entry.
func TestParallelWriteBacksSameHash(t *testing.T) {
	srv, s := newTestServer(t, Config{Workers: -1, WorkerTTL: time.Hour, DataDir: t.TempDir()}, nil)
	spec := JobSpec{Workload: testWorkload(t), Instructions: 31_337}
	hash := specHash(t, spec)
	res := fullResult()

	const writers, readers = 16, 16
	var wg sync.WaitGroup
	var putFailures, getFailures atomic.Int32
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Independent RemoteResultStores: parallel worker processes, not
			// one store's serialized client.
			if err := NewRemoteResultStore(srv.URL).WriteBack(hash, res); err != nil {
				putFailures.Add(1)
				t.Log(err)
			}
		}()
	}
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A reader may race ahead of the first PUT (miss) but must never
			// see an error or an unverifiable envelope.
			r, err := NewRemoteResultStore(srv.URL).Lookup(hash)
			if err != nil {
				getFailures.Add(1)
				t.Log(err)
			}
			if r != nil && r.Cycles != res.Cycles {
				getFailures.Add(1)
				t.Logf("reader saw cycles %d, want %d", r.Cycles, res.Cycles)
			}
		}()
	}
	wg.Wait()
	if putFailures.Load() != 0 || getFailures.Load() != 0 {
		t.Fatalf("put/get failures = %d/%d, want 0/0", putFailures.Load(), getFailures.Load())
	}
	if n := s.results.store.Len(); n != 1 {
		t.Errorf("store entries after %d same-hash write-backs = %d, want 1", writers, n)
	}
	if m := s.Metrics(); m.StoreRemoteWritebacks != writers {
		t.Errorf("writebacks = %d, want %d", m.StoreRemoteWritebacks, writers)
	}
	// The filed result still round-trips through a submission.
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := j.Wait(t.Context())
	if err != nil || !j.CacheHit() || got.Cycles != res.Cycles {
		t.Errorf("post-race submission: cycles=%v cacheHit=%v err=%v", got, j.CacheHit(), err)
	}
}

// TestDispatchShortCircuitOnWriteBack pins the dispatch-time short-circuit:
// a result that lands (via write-back) while its job sits queued completes
// the job at dispatch without reaching a backend — counted as completed but
// not executed, so the global dedup ratio sees it.
func TestDispatchShortCircuitOnWriteBack(t *testing.T) {
	gate := make(chan struct{})
	var gateOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(gate) }) }
	t.Cleanup(openGate)
	var ran atomic.Uint64
	srv, s := newTestServer(t, Config{Workers: 1}, func(o sim.Options) (*sim.RunResult, error) {
		ran.Add(1)
		if o.Instructions == 1000 {
			<-gate
		}
		return &sim.RunResult{Cycles: o.Instructions}, nil
	})
	name := testWorkload(t)

	ja, err := s.Submit(JobSpec{Workload: name, Instructions: 1000})
	if err != nil {
		t.Fatal(err)
	}
	// Job A holds the only slot; B queues behind it.
	waitFor(t, 5*time.Second, func() bool { return s.Running() == 1 })
	specB := JobSpec{Workload: name, Instructions: 2000}
	jb, err := s.Submit(specB)
	if err != nil {
		t.Fatal(err)
	}

	// B's result arrives from elsewhere in the cluster while B is queued.
	hashB := specHash(t, specB)
	body, _ := json.Marshal(sim.NewResultEnvelope(hashB, &sim.RunResult{Cycles: 4242}))
	resp := putEnvelope(t, srv.URL, hashB, body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("write-back: HTTP %d, want 201", resp.StatusCode)
	}

	openGate()
	resB, err := jb.Wait(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if !jb.CacheHit() {
		t.Error("short-circuited job not marked as a cache hit")
	}
	if resB.Cycles != 4242 {
		t.Errorf("short-circuited job cycles = %d, want 4242 (the written-back result)", resB.Cycles)
	}
	if _, err := ja.Wait(t.Context()); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 1 {
		t.Errorf("simulations run = %d, want 1 (only job A)", ran.Load())
	}
	m := s.Metrics()
	if m.JobsCompleted != 2 || m.JobsExecuted != 1 {
		t.Errorf("completed/executed = %d/%d, want 2/1", m.JobsCompleted, m.JobsExecuted)
	}
	if m.GlobalDedupRatio != 0.5 {
		t.Errorf("global dedup ratio = %v, want 0.5", m.GlobalDedupRatio)
	}
}

// TestRemoteHitPromotionIsolation is the cache-aliasing regression test for
// the remote-hit path, mirroring TestStoreHitResultIsolation: a result
// adopted from the cluster share is promoted into the local LRU as an
// independent clone, so a caller vandalizing its copy cannot corrupt what
// later submissions observe — and the later submissions come from the local
// LRU, not another network round trip.
func TestRemoteHitPromotionIsolation(t *testing.T) {
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
	upstreamSrv, upstream := newTestServer(t, Config{Workers: 1}, rich)
	if _, err := upstream.RunSync(t.Context(), spec); err != nil {
		t.Fatal(err)
	}

	s, err := Open(Config{Workers: 1, Share: NewRemoteResultStore(upstreamSrv.URL)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	s.runFn = func(sim.Options) (*sim.RunResult, error) {
		return nil, errors.New("remote hit expected; nothing should simulate")
	}

	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := j.Wait(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if !j.CacheHit() {
		t.Fatal("expected a remote share hit")
	}

	// Vandalize every mutable layer of the caller's copy.
	got.Cycles = 0
	got.Counters["pipeline.retired"] = 999
	got.Mechanisms[0].Counters["constable.eliminated"] = 999

	j2, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := j2.Wait(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if got2.Cycles != 12345 || got2.Counters["pipeline.retired"] != 42 ||
		got2.Mechanisms[0].Counters["constable.eliminated"] != 7 {
		t.Errorf("promoted result corrupted by a caller's mutation: %+v", got2)
	}

	m := s.Metrics()
	if m.StoreRemoteHits != 1 {
		t.Errorf("consumer remote hits = %d, want 1 (resubmit must come from the LRU)", m.StoreRemoteHits)
	}
	if m.CacheHits != 1 {
		t.Errorf("cache hits = %d, want 1 (the promoted entry)", m.CacheHits)
	}
	if um := upstream.Metrics(); um.StoreRemoteHits != 1 {
		t.Errorf("upstream served %d GETs, want 1", um.StoreRemoteHits)
	}
}
