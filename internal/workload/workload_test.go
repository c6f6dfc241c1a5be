package workload

import (
	"sync"
	"testing"

	"constable/internal/fsim"
	"constable/internal/inspector"
	"constable/internal/isa"
)

func TestSuiteShape(t *testing.T) {
	suite := Suite()
	if len(suite) != 90 {
		t.Fatalf("suite has %d workloads, want 90 (Table 4)", len(suite))
	}
	counts := make(map[Category]int)
	names := make(map[string]bool)
	for _, s := range suite {
		counts[s.Category]++
		if names[s.Name] {
			t.Errorf("duplicate workload name %q", s.Name)
		}
		names[s.Name] = true
	}
	want := map[Category]int{Client: 22, Enterprise: 14, FSPEC17: 29, ISPEC17: 11, Server: 14}
	for cat, n := range want {
		if counts[cat] != n {
			t.Errorf("category %s has %d workloads, want %d", cat, counts[cat], n)
		}
	}
}

func TestEveryWorkloadBuildsAndRuns(t *testing.T) {
	for _, s := range Suite() {
		cpu, err := s.NewCPU(false)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		// Run a little and make sure nothing panics and loads appear.
		loads := 0
		for i := 0; i < 5000; i++ {
			d := cpu.Step()
			if d.Op == isa.OpLoad {
				loads++
			}
		}
		if loads == 0 {
			t.Errorf("%s: no loads in first 5000 instructions", s.Name)
		}
	}
}

func TestWorkloadsAreDeterministic(t *testing.T) {
	s := Suite()[0]
	run := func() []isa.DynInst {
		cpu, err := s.NewCPU(false)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]isa.DynInst, 2000)
		for i := range out {
			out[i] = cpu.Step()
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("instruction %d differs between runs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// analyze runs a workload through the inspector for n instructions.
func analyze(t *testing.T, s *Spec, apx bool, n int) *inspector.Report {
	t.Helper()
	cpu, err := s.NewCPU(apx)
	if err != nil {
		t.Fatal(err)
	}
	ins := inspector.New()
	for i := 0; i < n; i++ {
		d := cpu.Step()
		ins.Observe(&d)
	}
	return ins.Report()
}

func TestGlobalStableFractionShape(t *testing.T) {
	// The Fig. 3 shape must emerge: Client/Enterprise/Server categories have
	// a clearly higher global-stable fraction than FSPEC17, and the overall
	// average is substantial (paper: 34.2%).
	const n = 120_000
	fracs := make(map[Category]float64)
	for _, cat := range Categories {
		var specs []*Spec
		for _, s := range SmallSuite() {
			if s.Category == cat {
				specs = append(specs, s)
			}
		}
		var sum float64
		for _, s := range specs {
			sum += analyze(t, s, false, n).GlobalStableFraction()
		}
		fracs[cat] = sum / float64(len(specs))
	}
	for _, rich := range []Category{Client, Enterprise, Server} {
		if fracs[rich] <= fracs[FSPEC17] {
			t.Errorf("%s global-stable fraction %.3f should exceed FSPEC17 %.3f",
				rich, fracs[rich], fracs[FSPEC17])
		}
	}
	var avg float64
	for _, f := range fracs {
		avg += f
	}
	avg /= float64(len(fracs))
	if avg < 0.15 || avg > 0.60 {
		t.Errorf("average global-stable fraction %.3f out of plausible range [0.15,0.60] (paper: 0.342)", avg)
	}
}

func TestAllThreeAddressingModesPresent(t *testing.T) {
	// Global-stable loads must span PC-relative, stack-relative and
	// register-relative addressing (Fig. 3b).
	total := make(map[string]uint64)
	for _, s := range SmallSuite() {
		rep := analyze(t, s, false, 60_000)
		for m, c := range rep.ByMode {
			total[m] += c
		}
	}
	for _, mode := range []string{"pc-rel", "stack-rel", "reg-rel"} {
		if total[mode] == 0 {
			t.Errorf("no global-stable loads with %s addressing", mode)
		}
	}
}

func TestAPXReducesStackLoads(t *testing.T) {
	// Appendix B: with 32 registers the inlined-args kernels keep arguments
	// in registers, so dynamic loads drop and the drop is concentrated in
	// stack-relative loads.
	var spec *Spec
	for _, s := range Suite() {
		if s.Category == Enterprise {
			spec = s
			break
		}
	}
	base := analyze(t, spec, false, 100_000)
	apx := analyze(t, spec, true, 100_000)

	baseFrac := float64(base.DynLoads) / float64(base.DynInsts)
	apxFrac := float64(apx.DynLoads) / float64(apx.DynInsts)
	if apxFrac >= baseFrac {
		t.Errorf("APX load density %.4f should be below baseline %.4f", apxFrac, baseFrac)
	}

	baseStack := float64(base.ByMode["stack-rel"]) / float64(maxU(base.GlobalStableDynLoads, 1))
	apxStack := float64(apx.ByMode["stack-rel"]) / float64(maxU(apx.GlobalStableDynLoads, 1))
	if apxStack >= baseStack {
		t.Errorf("APX stack-relative stable share %.3f should drop below %.3f", apxStack, baseStack)
	}
	// PC-relative runtime constants must survive APX.
	if apx.ByMode["pc-rel"] == 0 {
		t.Error("PC-relative global-stable loads must survive APX")
	}
}

func TestByNameAndNames(t *testing.T) {
	names := Names()
	if len(names) != 90 {
		t.Fatalf("Names() returned %d entries", len(names))
	}
	s, err := ByName(names[3])
	if err != nil || s.Name != names[3] {
		t.Fatalf("ByName(%q) = %v, %v", names[3], s, err)
	}
	if _, err := ByName("no-such-workload"); err == nil {
		t.Error("ByName must fail for unknown workloads")
	}
}

func TestByCategoryPartition(t *testing.T) {
	m := ByCategory()
	total := 0
	for _, specs := range m {
		total += len(specs)
	}
	if total != 90 {
		t.Errorf("ByCategory covers %d workloads, want 90", total)
	}
}

func TestSmallSuite(t *testing.T) {
	small := SmallSuite()
	if len(small) != 15 {
		t.Errorf("SmallSuite has %d workloads, want 15 (3 archetypes × 5 categories)", len(small))
	}
	cats := make(map[Category]int)
	for _, s := range small {
		cats[s.Category]++
	}
	for _, cat := range Categories {
		if cats[cat] != 3 {
			t.Errorf("SmallSuite has %d %s workloads, want 3", cats[cat], cat)
		}
	}
}

func TestKernelNames(t *testing.T) {
	names := KernelNames()
	if len(names) != len(kernelByName) {
		t.Fatalf("KernelNames() = %d entries, want %d", len(names), len(kernelByName))
	}
	for i := 1; i < len(names); i++ {
		if names[i] <= names[i-1] {
			t.Errorf("KernelNames not sorted at %d: %q <= %q", i, names[i], names[i-1])
		}
	}
}

func TestEveryKernelRunsStandalone(t *testing.T) {
	for _, name := range KernelNames() {
		spec := &Spec{
			Name:     "solo-" + name,
			Category: Client,
			Seed:     42,
			mixes:    []mix{{kernel: name, iters: 20, pad: 1}},
		}
		cpu, err := spec.NewCPU(false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := 0; i < 3000; i++ {
			cpu.Step()
		}
	}
}

func TestSilentStoreKernelEmitsSilentStores(t *testing.T) {
	spec := &Spec{Name: "ss", Category: Client, Seed: 1,
		mixes: []mix{{kernel: "silentstore", iters: 30, pad: 0}}}
	cpu, err := spec.NewCPU(false)
	if err != nil {
		t.Fatal(err)
	}
	silent := 0
	for i := 0; i < 2000; i++ {
		d := cpu.Step()
		if d.Op == isa.OpStore && d.Silent {
			silent++
		}
	}
	if silent == 0 {
		t.Error("silentstore kernel produced no silent stores")
	}
}

func TestPointerChaseAddressesVary(t *testing.T) {
	spec := &Spec{Name: "pc", Category: Client, Seed: 1,
		mixes: []mix{{kernel: "pointerchase", iters: 30, pad: 0}}}
	cpu, err := spec.NewCPU(false)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		d := cpu.Step()
		if d.Op == isa.OpLoad {
			addrs[d.Addr] = true
		}
	}
	if len(addrs) < 10 {
		t.Errorf("pointer chase touched only %d distinct addresses", len(addrs))
	}
}

func maxU(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

var _ = fsim.InitialWord // keep fsim import for documentation linkage

// TestSharedProgramConcurrentCPUs steps two CPUs of one spec on two
// goroutines. They share the spec's memoized program, and each must yield
// the stream a CPU over a freshly built program yields.
func TestSharedProgramConcurrentCPUs(t *testing.T) {
	const n = 20_000
	spec := SmallSuite()[0]
	p, err := spec.Build(false)
	if err != nil {
		t.Fatal(err)
	}
	ref := fsim.New(p)
	want := make([]isa.DynInst, n)
	for i := range want {
		want[i] = ref.Step()
	}

	cpus := make([]*fsim.CPU, 2)
	for i := range cpus {
		if cpus[i], err = spec.NewCPU(false); err != nil {
			t.Fatal(err)
		}
	}
	if cpus[0].Program() != cpus[1].Program() {
		t.Error("two CPUs of one spec do not share its program")
	}
	var wg sync.WaitGroup
	for g, cpu := range cpus {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range want {
				if d := cpu.Step(); d != want[i] {
					t.Errorf("CPU %d, instruction %d: %+v, want %+v", g, i, d, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestKernelStreamViaNewStream(t *testing.T) {
	spec := SmallSuite()[0]
	st, err := spec.NewStream(false, 25)
	if err != nil {
		t.Fatal(err)
	}
	var count int
	for {
		if _, ok := st.Next(); !ok {
			break
		}
		count++
	}
	if count != 25 {
		t.Fatalf("kernel stream yielded %d, want 25", count)
	}
	if st.Err() != nil {
		t.Fatalf("kernel stream Err() = %v", st.Err())
	}
}
