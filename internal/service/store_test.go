package service

import (
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"constable/internal/sim"
	"constable/internal/stats"
)

// fullResult builds a RunResult exercising every field class the store must
// round-trip: the public JSON schema plus the typed views that RunResult
// itself excludes from JSON (`json:"-"`).
func fullResult() *sim.RunResult {
	res := &sim.RunResult{
		Identity: sim.RunIdentity{
			Workload: "w", Category: "Server", Mechanism: "constable",
			Threads: 1, Instructions: 5000,
		},
		ConfigDigest: "abc123",
		Cycles:       1234,
		IPC:          3.25,
		Counters:     stats.Snapshot{"pipeline.retired": 5000, "constable.eliminated": 321},
		Mechanisms: []sim.MechanismStats{
			{Name: "constable", Counters: stats.Snapshot{"constable.eliminated": 321}},
		},
		L1DAccesses:  777,
		L2Accesses:   88,
		LLCAccesses:  9,
		DTLBAccesses: 555,

		EVESPredictions: 12,
		EVESMispredicts: 3,
	}
	res.Pipeline.Cycles = 1234
	res.Pipeline.Retired = 5000
	res.Pipeline.EliminatedLoads = 321
	res.Pipeline.EliminatedByMode = map[string]uint64{"base+disp": 300, "absolute": 21}
	res.Constable.SLDLookups = 4000
	res.Constable.Eliminated = 321
	res.Power.FE = 10.5
	res.Power.L1D = 20.25
	res.Power.Cycles = 1234
	return res
}

func TestStoreRoundTrip(t *testing.T) {
	st, err := newResultStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hash := "deadbeefcafe0123"
	want := fullResult()
	if err := st.Save(hash, want); err != nil {
		t.Fatal(err)
	}
	got, ok := st.load(hash, true)
	if !ok {
		t.Fatal("Load missed a just-saved result")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round-trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	// The typed views excluded from RunResult's public JSON must survive.
	if got.Pipeline.EliminatedByMode["base+disp"] != 300 ||
		got.Constable.SLDLookups != 4000 ||
		got.L1DAccesses != 777 || got.EVESPredictions != 12 {
		t.Errorf("typed views lost in round-trip: %+v", got)
	}
	if st.Len() != 1 {
		t.Errorf("store Len = %d, want 1", st.Len())
	}
}

func TestStoreCorruptionAndAliasing(t *testing.T) {
	st, err := newResultStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.load("absent00", true); ok {
		t.Error("Load hit on an empty store")
	}

	// Truncated/garbage file: tolerated as a miss, counted as corrupt.
	garbage := "badbadbad0"
	p := st.path(garbage)
	os.MkdirAll(filepath.Dir(p), 0o755)
	os.WriteFile(p, []byte(`{"schema":1,"hash":"badbadbad0","result":{"cyc`), 0o644)
	if _, ok := st.load(garbage, true); ok {
		t.Error("Load decoded a truncated file")
	}

	// Aliasing: a valid envelope copied under another key must not serve —
	// the envelope's recorded hash is verified against the requested one.
	if err := st.Save("realhash01", fullResult()); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(st.path("realhash01"))
	if err != nil {
		t.Fatal(err)
	}
	alias := "otherhash9"
	os.MkdirAll(filepath.Dir(st.path(alias)), 0o755)
	os.WriteFile(st.path(alias), b, 0o644)
	if _, ok := st.load(alias, false); ok {
		t.Error("Load served an aliased envelope whose hash does not match its key")
	}

	// A quiet load counts no miss, but corruption is counted either way.
	s := st.Stats()
	if s.corrupt != 2 || s.misses != 2 {
		t.Errorf("corrupt/misses = %d/%d, want 2 (garbage + alias) / 2 (absent + garbage)", s.corrupt, s.misses)
	}
	if _, ok := st.load("realhash01", true); !ok {
		t.Error("the original key stopped serving")
	}
}

// TestStoreSweepsOrphanedTempFiles verifies reopening a store removes temp
// files a crashed writer left behind, while real entries survive.
func TestStoreSweepsOrphanedTempFiles(t *testing.T) {
	dir := t.TempDir()
	st, err := newResultStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save("realhash01", fullResult()); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, "re", ".realhash99.json.tmp123456")
	if err := os.WriteFile(orphan, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := newResultStore(dir); err != nil { // "restart"
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Errorf("orphaned temp file survived reopen: %v", err)
	}
	st2, err := newResultStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st2.load("realhash01", true); !ok {
		t.Error("real entry lost by the temp-file sweep")
	}
}

// TestStorePersistenceAcrossSchedulers is the restart-persistence
// acceptance test: results written by one scheduler are re-served by a
// fresh scheduler on the same --data-dir as hits, with zero re-simulations.
func TestStorePersistenceAcrossSchedulers(t *testing.T) {
	dir := t.TempDir()
	name := testWorkload(t)
	spec := JobSpec{Workload: name, Mechanism: "constable", Instructions: 5000}

	var calls atomic.Uint64
	s1, err := Open(Config{Workers: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s1.runFn = countingRun(&calls)
	j, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := j.Wait(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Fatalf("first scheduler ran %d simulations, want 1", calls.Load())
	}

	// "Restart": a brand-new scheduler over the same directory. Any
	// simulation here is a persistence failure.
	s2, err := Open(Config{Workers: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s2.Close() })
	s2.runFn = func(opts sim.Options) (*sim.RunResult, error) {
		t.Error("restarted scheduler re-simulated a persisted spec")
		return countingRun(&calls)(opts)
	}
	j2, err := s2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := j2.Wait(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if !j2.CacheHit() {
		t.Error("restarted scheduler did not mark the store hit as a cache hit")
	}
	if got.Cycles != want.Cycles {
		t.Errorf("persisted cycles = %d, want %d", got.Cycles, want.Cycles)
	}
	m := s2.Metrics()
	if m.StoreHits != 1 || m.JobsCompleted != 0 {
		t.Errorf("metrics after restart = store hits %d / completed %d, want 1 / 0", m.StoreHits, m.JobsCompleted)
	}

	// A second submission on s2 must now hit the promoted LRU entry, not
	// the disk again.
	j3, err := s2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j3.Wait(t.Context()); err != nil {
		t.Fatal(err)
	}
	if m := s2.Metrics(); m.StoreHits != 1 || m.CacheHits != 1 {
		t.Errorf("LRU promotion broken: store hits %d (want 1), cache hits %d (want 1)", m.StoreHits, m.CacheHits)
	}
}

// TestStoreSharedAcrossLiveSchedulers covers cross-process sharing: two live
// schedulers over one directory, where the second sees the first's writes.
func TestStoreSharedAcrossLiveSchedulers(t *testing.T) {
	dir := t.TempDir()
	name := testWorkload(t)
	spec := JobSpec{Workload: name, Mechanism: "eves", Instructions: 4000}

	var calls atomic.Uint64
	open := func() *Scheduler {
		s, err := Open(Config{Workers: 1, DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		s.runFn = countingRun(&calls)
		t.Cleanup(func() { s.Close() })
		return s
	}
	a, b := open(), open()
	ja, err := a.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ja.Wait(t.Context()); err != nil {
		t.Fatal(err)
	}
	jb, err := b.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jb.Wait(t.Context()); err != nil {
		t.Fatal(err)
	}
	if !jb.CacheHit() {
		t.Error("second scheduler did not reuse the first's persisted result")
	}
	if calls.Load() != 1 {
		t.Errorf("two schedulers over one store ran %d simulations, want 1", calls.Load())
	}
}

// TestStoreSaveFailureDegrades verifies a broken data dir degrades to
// LRU-only caching instead of failing jobs.
func TestStoreSaveFailureDegrades(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	var calls atomic.Uint64
	s.runFn = countingRun(&calls)
	// Make the shard un-creatable by replacing the store root with a file.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := s.Submit(JobSpec{Workload: testWorkload(t), Instructions: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(t.Context()); err != nil {
		t.Fatalf("job failed because persistence failed: %v", err)
	}
	waitFor(t, 2*time.Second, func() bool { return s.Metrics().StoreErrors >= 1 })
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
