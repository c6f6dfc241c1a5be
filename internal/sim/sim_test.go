package sim

import (
	"testing"

	"constable/internal/constable"
	"constable/internal/pipeline"
	"constable/internal/workload"
)

const testInsts = 40_000

func spec(t *testing.T, name string) *workload.Spec {
	t.Helper()
	s, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBaselineRunCompletes(t *testing.T) {
	r, err := Run(Options{Workload: spec(t, "server-kvstore-00"), Instructions: testInsts})
	if err != nil {
		t.Fatal(err)
	}
	if r.Pipeline.Retired != testInsts {
		t.Errorf("retired %d, want %d", r.Pipeline.Retired, testInsts)
	}
	if r.IPC <= 0.3 || r.IPC > 6 {
		t.Errorf("IPC %.2f implausible", r.IPC)
	}
}

// TestRunRetiresExactlyItsBudget checks that a run retires its whole
// instruction budget on every hardware thread and not one instruction more.
func TestRunRetiresExactlyItsBudget(t *testing.T) {
	w := spec(t, "server-kvstore-00")
	for _, n := range []uint64{1, 4000} {
		for _, threads := range []int{1, 2} {
			res, err := Run(Options{Workload: w, Instructions: n, Threads: threads})
			if err != nil {
				t.Fatalf("budget %d, %d threads: %v", n, threads, err)
			}
			if want := n * uint64(threads); res.Pipeline.Retired != want {
				t.Errorf("budget %d, %d threads: retired %d, want %d", n, threads, res.Pipeline.Retired, want)
			}
		}
	}
}

func TestRunIsDeterministic(t *testing.T) {
	opts := Options{Workload: spec(t, "client-browser-00"), Instructions: 20_000,
		Mech: Mechanism{Constable: true, EVES: true}}
	a, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Pipeline.EliminatedLoads != b.Pipeline.EliminatedLoads {
		t.Errorf("non-deterministic: %d/%d vs %d/%d cycles/elims",
			a.Cycles, a.Pipeline.EliminatedLoads, b.Cycles, b.Pipeline.EliminatedLoads)
	}
}

// TestGoldenCheckAcrossSuite is the reproduction of §8.5: Constable's
// eliminated loads must return architecturally-correct values in every
// workload. Any SLD staleness the disambiguation logic fails to catch
// surfaces here as a run error.
func TestGoldenCheckAcrossSuite(t *testing.T) {
	for _, s := range workload.SmallSuite() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			r, err := Run(Options{Workload: s, Instructions: testInsts,
				Mech: Mechanism{Constable: true, EVES: true}})
			if err != nil {
				t.Fatal(err)
			}
			if r.Pipeline.GoldenChecks == 0 {
				t.Error("no golden checks ran")
			}
		})
	}
}

func TestConstableEliminatesAndHelps(t *testing.T) {
	s := spec(t, "enterprise-appserver-00")
	base, err := Run(Options{Workload: s, Instructions: testInsts})
	if err != nil {
		t.Fatal(err)
	}
	cons, err := Run(Options{Workload: s, Instructions: testInsts, Mech: Mechanism{Constable: true}})
	if err != nil {
		t.Fatal(err)
	}
	if cons.Pipeline.EliminatedLoads == 0 {
		t.Fatal("no loads eliminated")
	}
	if sp := Speedup(base, cons); sp < 1.0 {
		t.Errorf("Constable slowed appserver down: %.4f", sp)
	}
	// Elimination must reduce RS allocations and L1-D accesses (Fig. 18).
	if cons.Pipeline.RSAllocs >= base.Pipeline.RSAllocs {
		t.Errorf("RS allocs did not drop: %d vs %d", cons.Pipeline.RSAllocs, base.Pipeline.RSAllocs)
	}
	if cons.L1DAccesses >= base.L1DAccesses {
		t.Errorf("L1-D accesses did not drop: %d vs %d", cons.L1DAccesses, base.L1DAccesses)
	}
}

func TestIdealConstableBeatsRealConstable(t *testing.T) {
	s := spec(t, "server-webserver-01")
	base, err := Run(Options{Workload: s, Instructions: testInsts})
	if err != nil {
		t.Fatal(err)
	}
	cons, err := Run(Options{Workload: s, Instructions: testInsts, Mech: Mechanism{Constable: true}})
	if err != nil {
		t.Fatal(err)
	}
	ideal, err := Run(Options{Workload: s, Instructions: testInsts, Mech: Mechanism{IdealConstable: true}})
	if err != nil {
		t.Fatal(err)
	}
	spC, spI := Speedup(base, cons), Speedup(base, ideal)
	if spI < spC {
		t.Errorf("ideal (%.4f) must be at least as fast as real Constable (%.4f)", spI, spC)
	}
	if ideal.Pipeline.EliminatedLoads <= cons.Pipeline.EliminatedLoads {
		t.Errorf("ideal coverage (%d) must exceed real coverage (%d)",
			ideal.Pipeline.EliminatedLoads, cons.Pipeline.EliminatedLoads)
	}
}

func TestEVESPlusConstableBeatsEVES(t *testing.T) {
	s := spec(t, "enterprise-appserver-00")
	base, err := Run(Options{Workload: s, Instructions: testInsts})
	if err != nil {
		t.Fatal(err)
	}
	eves, err := Run(Options{Workload: s, Instructions: testInsts, Mech: Mechanism{EVES: true}})
	if err != nil {
		t.Fatal(err)
	}
	both, err := Run(Options{Workload: s, Instructions: testInsts, Mech: Mechanism{EVES: true, Constable: true}})
	if err != nil {
		t.Fatal(err)
	}
	if Speedup(base, both) < Speedup(base, eves) {
		t.Errorf("EVES+Constable (%.4f) must beat EVES alone (%.4f)",
			Speedup(base, both), Speedup(base, eves))
	}
}

func TestSMT2RunsAndConstableHelpsMore(t *testing.T) {
	s := spec(t, "client-script-02")
	base2, err := Run(Options{Workload: s, Instructions: testInsts, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if base2.Pipeline.RetiredPerThread[0] != testInsts || base2.Pipeline.RetiredPerThread[1] != testInsts {
		t.Fatalf("SMT2 retired %v", base2.Pipeline.RetiredPerThread)
	}
	cons2, err := Run(Options{Workload: s, Instructions: testInsts, Threads: 2,
		Mech: Mechanism{Constable: true}})
	if err != nil {
		t.Fatal(err)
	}
	if cons2.Pipeline.EliminatedLoads == 0 {
		t.Error("no eliminations under SMT2")
	}
	if sp := Speedup(base2, cons2); sp < 1.0 {
		t.Errorf("Constable slowed SMT2 down: %.4f", sp)
	}
}

func TestStableAnalysisMemoized(t *testing.T) {
	s := spec(t, "client-ui-01")
	a, err := StableAnalysis(s, false, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := StableAnalysis(s, false, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("StableAnalysis must memoize")
	}
}

func TestCoreOverride(t *testing.T) {
	s := spec(t, "enterprise-appserver-00")
	narrow := pipeline.DefaultConfig()
	narrow.NumLoadPorts = 1
	wide := pipeline.DefaultConfig()
	wide.NumLoadPorts = 6
	rn, err := Run(Options{Workload: s, Instructions: testInsts, Core: &narrow})
	if err != nil {
		t.Fatal(err)
	}
	rw, err := Run(Options{Workload: s, Instructions: testInsts, Core: &wide})
	if err != nil {
		t.Fatal(err)
	}
	if rw.Cycles >= rn.Cycles {
		t.Errorf("6 load ports (%d cycles) must beat 1 load port (%d cycles)", rw.Cycles, rn.Cycles)
	}
}

func TestModeFilterRestrictsElimination(t *testing.T) {
	s := spec(t, "enterprise-appserver-00")
	all, err := Run(Options{Workload: s, Instructions: testInsts, Mech: Mechanism{Constable: true}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := constable.DefaultConfig()
	cfg.ModeFilter = 2 // isa.AddrStackRel
	stackOnly, err := Run(Options{Workload: s, Instructions: testInsts,
		Mech: Mechanism{Constable: true, ConstableConfig: &cfg}})
	if err != nil {
		t.Fatal(err)
	}
	if stackOnly.Pipeline.EliminatedLoads >= all.Pipeline.EliminatedLoads {
		t.Errorf("mode-filtered elimination (%d) must be below unrestricted (%d)",
			stackOnly.Pipeline.EliminatedLoads, all.Pipeline.EliminatedLoads)
	}
	for mode, n := range stackOnly.Pipeline.EliminatedByMode {
		if mode != "stack-rel" && n > 0 {
			t.Errorf("mode filter leaked %d %s eliminations", n, mode)
		}
	}
}

func TestAPXRunWorks(t *testing.T) {
	r, err := Run(Options{Workload: spec(t, "enterprise-middleware-01"),
		Instructions: 20_000, APX: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Pipeline.Retired != 20_000 {
		t.Errorf("retired %d", r.Pipeline.Retired)
	}
}

// TestRunResultClone verifies Clone shares no mutable state with the
// original — the contract the service result cache's isolation rests on.
func TestRunResultClone(t *testing.T) {
	orig, err := Run(Options{Workload: spec(t, "server-kvstore-00"),
		Instructions: 10_000, Mech: Mechanism{Constable: true}})
	if err != nil {
		t.Fatal(err)
	}
	clone := orig.Clone()
	if clone == orig {
		t.Fatal("Clone returned the receiver")
	}
	wantCycles := orig.Cycles
	wantRetired := orig.Counters.Get("pipeline.retired")
	wantElim := orig.Pipeline.EliminatedLoads

	// Mutate every mutable region of the clone.
	clone.Cycles = 0
	for name := range clone.Counters {
		clone.Counters[name] = 0
	}
	for i := range clone.Mechanisms {
		for name := range clone.Mechanisms[i].Counters {
			clone.Mechanisms[i].Counters[name] = 0
		}
	}
	for mode := range clone.Pipeline.EliminatedByMode {
		clone.Pipeline.EliminatedByMode[mode] = 0
	}
	clone.Pipeline.EliminatedLoads = 0

	if orig.Cycles != wantCycles ||
		orig.Counters.Get("pipeline.retired") != wantRetired ||
		orig.Pipeline.EliminatedLoads != wantElim {
		t.Errorf("mutating the clone changed the original")
	}
	for i, m := range orig.Mechanisms {
		for name, v := range m.Counters {
			if v == 0 && clone.Mechanisms[i].Counters[name] == 0 {
				continue
			}
			if v == 0 {
				t.Errorf("mechanism %s counter %s zeroed through the clone", m.Name, name)
			}
		}
	}
	if (*RunResult)(nil).Clone() != nil {
		t.Error("nil Clone != nil")
	}
}
