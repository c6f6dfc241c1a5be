package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"constable/internal/constable"
	"constable/internal/pipeline"
)

// reuseSpecs are runs that between them leave every kind of state on the
// parked core and hierarchy: an AMT-I eviction hook, a swapped-in delta
// prefetcher, an L1-D predictor, two hardware contexts (one pair with
// per-thread ELAR trackers), stacked EVES and Constable attachments, a
// passed-in branch predictor and a core with half the ROB and RS.
func reuseSpecs(t *testing.T) (names []string, specs []Options) {
	w := spec(t, "server-kvstore-00")
	amti := constable.DefaultConfig()
	amti.InvalidateOnL1Evict = true
	small := pipeline.DefaultConfig()
	small.ROBSize /= 2
	small.RSSize /= 2
	const n = 8000
	return []string{"baseline", "constable-amt-i", "prefetch=delta", "l1dpred=counter", "smt2",
			"eves+constable", "elar-smt2", "bpred=bimodal", "half-rob-rs"},
		[]Options{
			{Workload: w, Instructions: n},
			{Workload: w, Instructions: n, Mech: Mechanism{Constable: true, ConstableConfig: &amti}},
			{Workload: w, Instructions: n, Mech: Mechanism{Prefetch: "delta"}},
			{Workload: w, Instructions: n, Mech: Mechanism{L1DPred: "counter"}},
			{Workload: w, Instructions: n, Threads: 2},
			{Workload: w, Instructions: n, Mech: Mechanism{EVES: true, Constable: true}},
			{Workload: w, Instructions: n, Threads: 2, Mech: Mechanism{ELAR: true}},
			{Workload: w, Instructions: n, Mech: Mechanism{BPred: "bimodal"}},
			{Workload: w, Instructions: n, Core: &small},
		}
}

func runSpecs(t *testing.T, specs []Options) []*RunResult {
	t.Helper()
	out := make([]*RunResult, len(specs))
	for i, o := range specs {
		r, err := Run(o)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = r
	}
	return out
}

// TestRunIndependentOfPreviousRun checks that a run's result does not depend
// on which run used the parked machine before it: every spec, run right
// after each of the others, reproduces its first result exactly.
func TestRunIndependentOfPreviousRun(t *testing.T) {
	names, specs := reuseSpecs(t)
	want := runSpecs(t, specs)
	for i := range specs {
		for j := range specs {
			if i == j {
				continue
			}
			got := runSpecs(t, []Options{specs[j], specs[i]})[1]
			if !reflect.DeepEqual(got, want[i]) {
				t.Errorf("%s after %s: result differs from its first run", names[i], names[j])
			}
		}
	}
}

// TestConcurrentRunsIndependentOfPreviousRun is the concurrent form: runs
// on several goroutines take and return machines through the free list in
// interleaved order, and every result still matches its sequential run.
func TestConcurrentRunsIndependentOfPreviousRun(t *testing.T) {
	names, specs := reuseSpecs(t)
	want := runSpecs(t, specs)
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range 2 * len(specs) {
				i := (g + k) % len(specs)
				got, err := Run(specs[i])
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d: %s differs from its sequential run", g, names[i])
				}
			}
		}()
	}
	wg.Wait()
}

// parkedMachines returns the free list's machines, checking that none of
// them still holds a finished run's streams.
func parkedMachines(t *testing.T) []*machine {
	t.Helper()
	machines.Lock()
	defer machines.Unlock()
	for _, m := range machines.free {
		if len(m.streams) != 0 {
			t.Errorf("parked machine holds %d streams", len(m.streams))
		}
	}
	return append([]*machine(nil), machines.free...)
}

// dropMachines empties the free list, so the next run builds a new machine.
func dropMachines() {
	machines.Lock()
	machines.free = nil
	machines.Unlock()
}

// TestMachineFreeListReusesOneMachine runs simulations one after another,
// each from a goroutine of its own and some after garbage collections: they
// all share one machine, which a sync.Pool did not guarantee (it empties on
// two collections, and the race detector makes it drop items at random).
func TestMachineFreeListReusesOneMachine(t *testing.T) {
	dropMachines()
	opts := Options{Workload: spec(t, "server-kvstore-00"), Instructions: 1000}
	var first *machine
	for i := range 100 {
		if i%10 == 9 {
			runtime.GC()
			runtime.GC()
		}
		errc := make(chan error)
		go func() {
			_, err := Run(opts)
			errc <- err
		}()
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		parked := parkedMachines(t)
		if len(parked) != 1 {
			t.Fatalf("run %d: %d machines parked, want 1", i, len(parked))
		}
		if first == nil {
			first = parked[0]
		} else if parked[0] != first {
			t.Fatalf("run %d built a new machine", i)
		}
	}
}

// TestShortRunSetupAllocations bounds what a short baseline run allocates
// once a machine is parked. Building a fresh default hierarchy alone
// allocates about 1.3 MB and a fresh core about 0.9 MB, so a run that stops
// reusing either of them fails here. The free
// list hands back the parked machine under the race detector too, so the
// test runs there as well.
func TestShortRunSetupAllocations(t *testing.T) {
	opts := Options{Workload: spec(t, "server-kvstore-00"), Instructions: 4000}
	runSpecs(t, []Options{opts, opts, opts})
	var per []uint64
	for range 9 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		runSpecs(t, []Options{opts})
		runtime.ReadMemStats(&after)
		per = append(per, after.TotalAlloc-before.TotalAlloc)
	}
	slices.Sort(per)
	const limit = 128 << 10 // 128 KiB
	median := per[len(per)/2]
	t.Logf("a warmed 4000-instruction run allocates %s (median of %d)", mib(median), len(per))
	if median > limit {
		t.Errorf("a warmed 4000-instruction run allocates %s (median of %d), want at most %s",
			mib(median), len(per), mib(limit))
	}
}

func mib(b uint64) string { return fmt.Sprintf("%.3f MiB", float64(b)/(1<<20)) }
