// This file defines the suite: 90 named workloads across the paper's five
// categories (Client, Enterprise, FSPEC17, ISPEC17, Server — Table 4). Each
// workload is a deterministic kernel mix; mixes are tuned per category so
// the measured global-stable fractions reproduce the Fig. 3 shape (Client/
// Enterprise/Server well above the SPEC suites, ≈34% overall average) as an
// emergent property of execution. (The package doc comment lives in
// kernels.go.)

package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"constable/internal/fsim"
	"constable/internal/prog"
)

// Category names the five workload suites, matching the paper's figures.
type Category string

// The five categories of Table 4.
const (
	Client     Category = "Client"
	Enterprise Category = "Enterprise"
	FSPEC17    Category = "FSPEC17"
	ISPEC17    Category = "ISPEC17"
	Server     Category = "Server"
)

// Categories lists all categories in the paper's plotting order.
var Categories = []Category{Client, Enterprise, FSPEC17, ISPEC17, Server}

// Spec declares one workload: a named, seeded kernel mix.
type Spec struct {
	Name     string
	Category Category
	Seed     int64
	mixes    []mix

	// programs memoizes NewCPU's Build, indexed by APX mode.
	programs [2]builtProgram
}

// builtProgram is one memoized Build result. fsim.New copies the program's
// initial registers and memory and only reads its code, so CPUs running
// concurrently can share it.
type builtProgram struct {
	once sync.Once
	p    *prog.Program
	err  error
}

// Build assembles the workload's program. APX selects the 32-register
// code-generation mode of appendix B.
func (s *Spec) Build(apx bool) (*prog.Program, error) {
	rng := rand.New(rand.NewSource(s.Seed))
	return buildProgram(s.Name, s.mixes, apx, rng)
}

// NewCPU returns a functional CPU for the workload. The program is built
// once per APX mode and shared by every CPU of the spec.
func (s *Spec) NewCPU(apx bool) (*fsim.CPU, error) {
	b := &s.programs[0]
	if apx {
		b = &s.programs[1]
	}
	b.once.Do(func() { b.p, b.err = s.Build(apx) })
	if b.err != nil {
		return nil, b.err
	}
	return fsim.New(b.p), nil
}

// NewStream returns the instruction stream of one simulation thread: a
// functional CPU of the workload that yields at most max instructions.
func (s *Spec) NewStream(apx bool, max uint64) (*fsim.Stream, error) {
	cpu, err := s.NewCPU(apx)
	if err != nil {
		return nil, err
	}
	return fsim.NewStream(cpu, max), nil
}

// archetype is a reusable kernel mix; each workload instantiates one with a
// deterministic per-workload variation of iteration counts and padding.
type archetype struct {
	label string
	mixes []mix
}

// Per-category archetypes. The stable/unstable balance per category follows
// the paper's characterization:
//   - Client/Enterprise/Server: heavy in runtime-constant, inlined-args and
//     tight-loop kernels (≈40–50% global-stable loads),
//   - ISPEC17: moderate stability plus branchy/pointer-chasing behaviour,
//   - FSPEC17: compute- and streaming-dominated (≈20% global-stable).
//
// Stable dynamic loads per inner iteration: runtimeconst 2, inlinedargs 2,
// tightloop 3, argchase 3, silentstore 1, regoverwrite 1. Unstable loads per
// iteration: streaming 4, constarray 3, stridevalue 3, randomaccess 2,
// pointerchase 1, storeinvalidate 1. The mixes below balance those rates to
// hit the Fig. 3 category fractions (Client/Enterprise/Server ≈ 0.45–0.50,
// ISPEC17 ≈ 0.30, FSPEC17 ≈ 0.20).
var categoryArchetypes = map[Category][]archetype{
	Client: {
		{"browser", []mix{
			{"runtimeconst", 25, 4}, {"inlinedargs", 40, 1}, {"argchase", 30, 0},
			{"branchy", 25, 1}, {"bigstream", 30, 0}, {"constarray", 38, 0},
			{"randomaccess", 24, 0}, {"silentstore", 15, 1},
		}},
		{"ui", []mix{
			{"inlinedargs", 50, 1}, {"tightloop", 40, 0}, {"runtimeconst", 22, 8},
			{"constarray", 48, 0}, {"branchy", 25, 0}, {"bigstream", 26, 0},
			{"storeinvalidate", 25, 1},
		}},
		{"script", []mix{
			{"argchase", 35, 1}, {"tightloop", 40, 0}, {"pointerchase", 55, 1},
			{"inlinedargs", 35, 1}, {"silentstore", 20, 1}, {"bigstream", 28, 0},
			{"randomaccess", 28, 0},
		}},
	},
	Enterprise: {
		{"appserver", []mix{
			{"inlinedargs", 55, 1}, {"argchase", 30, 0}, {"tightloop", 35, 0},
			{"storeinvalidate", 35, 1}, {"bigstream", 30, 0}, {"constarray", 34, 0},
		}},
		{"middleware", []mix{
			{"runtimeconst", 35, 6}, {"inlinedargs", 45, 1}, {"constarray", 46, 0},
			{"branchy", 25, 1}, {"argchase", 28, 0}, {"randomaccess", 34, 0},
			{"bigstream", 18, 0},
		}},
		{"analytics", []mix{
			{"tightloop", 45, 0}, {"inlinedargs", 40, 1}, {"stridevalue", 46, 0},
			{"runtimeconst", 28, 5}, {"regoverwrite", 30, 1}, {"bigstream", 24, 0},
		}},
	},
	FSPEC17: {
		{"fpdense", []mix{
			{"compute", 90, 0}, {"bigstream", 40, 0}, {"stridevalue", 40, 0},
			{"tightloop", 15, 1}, {"inlinedargs", 12, 1},
		}},
		{"fpstencil", []mix{
			{"streaming", 62, 0}, {"compute", 70, 1}, {"inlinedargs", 15, 1},
			{"constarray", 36, 0}, {"tightloop", 10, 0},
		}},
		{"fpsolver", []mix{
			{"compute", 80, 0}, {"randomaccess", 48, 1}, {"streaming", 42, 0},
			{"tightloop", 15, 0}, {"stridevalue", 24, 0},
		}},
	},
	ISPEC17: {
		{"intbranchy", []mix{
			{"branchy", 60, 1}, {"tightloop", 22, 0}, {"pointerchase", 55, 1},
			{"inlinedargs", 28, 1}, {"storeinvalidate", 35, 0}, {"bigstream", 20, 0},
		}},
		{"intcompress", []mix{
			{"inlinedargs", 35, 1}, {"streaming", 38, 0}, {"branchy", 35, 1},
			{"tightloop", 20, 0}, {"silentstore", 15, 1}, {"constarray", 28, 0},
		}},
		{"intgraph", []mix{
			{"pointerchase", 65, 1}, {"randomaccess", 42, 0}, {"tightloop", 25, 0},
			{"argchase", 16, 4}, {"branchy", 26, 0}, {"streaming", 18, 0},
		}},
	},
	Server: {
		{"kvstore", []mix{
			{"argchase", 35, 0}, {"tightloop", 45, 0}, {"inlinedargs", 45, 1},
			{"randomaccess", 56, 0}, {"silentstore", 25, 0}, {"bigstream", 28, 0},
		}},
		{"webserver", []mix{
			{"inlinedargs", 55, 1}, {"runtimeconst", 32, 6}, {"constarray", 52, 0},
			{"branchy", 22, 1}, {"argchase", 30, 0}, {"bigstream", 22, 0},
		}},
		{"dataproc", []mix{
			{"tightloop", 50, 0}, {"inlinedargs", 40, 1}, {"bigstream", 34, 0},
			{"argchase", 26, 2}, {"storeinvalidate", 25, 1}, {"stridevalue", 32, 0},
		}},
	},
}

// countsPerCategory reproduces Table 4's trace counts (22+14+29+11+14 = 90).
var countsPerCategory = map[Category]int{
	Client:     22,
	Enterprise: 14,
	FSPEC17:    29,
	ISPEC17:    11,
	Server:     14,
}

// The suite is deterministic, so it is generated once and memoized: the
// service layer resolves workload names on every JobSpec canonicalization,
// hash and sweep-cell submission, and regenerating 90 RNG-seeded specs per
// lookup dominated sweep-orchestration profiles. Specs are shared and must
// be treated as immutable by callers.
var (
	suiteOnce   sync.Once
	suiteSpecs  []*Spec
	suiteByName map[string]*Spec
)

func buildSuite() {
	for _, cat := range Categories {
		n := countsPerCategory[cat]
		arch := categoryArchetypes[cat]
		for i := 0; i < n; i++ {
			a := arch[i%len(arch)]
			seed := int64(1_000_003)*int64(len(suiteSpecs)+1) + int64(i)
			rng := rand.New(rand.NewSource(seed))
			// Vary the archetype deterministically: scale iteration counts
			// and padding so no two workloads are identical.
			mixes := make([]mix, len(a.mixes))
			for j, m := range a.mixes {
				scale := 0.6 + rng.Float64()*0.9 // 0.6..1.5
				mixes[j] = mix{
					kernel: m.kernel,
					iters:  maxInt(4, int(float64(m.iters)*scale)),
					pad:    m.pad + rng.Intn(3),
				}
			}
			// Shuffle kernel order per workload for distinct code layouts.
			rng.Shuffle(len(mixes), func(x, y int) { mixes[x], mixes[y] = mixes[y], mixes[x] })
			suiteSpecs = append(suiteSpecs, &Spec{
				Name:     fmt.Sprintf("%s-%s-%02d", lower(string(cat)), a.label, i),
				Category: cat,
				Seed:     seed,
				mixes:    mixes,
			})
		}
	}
	suiteByName = make(map[string]*Spec, len(suiteSpecs))
	for _, s := range suiteSpecs {
		suiteByName[s.Name] = s
	}
}

// Suite returns the full 90-workload suite in deterministic order. The
// returned slice is the caller's to reorder; the Specs themselves are
// shared and immutable.
func Suite() []*Spec {
	suiteOnce.Do(buildSuite)
	out := make([]*Spec, len(suiteSpecs))
	copy(out, suiteSpecs)
	return out
}

// ByName returns the workload with the given name from the suite.
func ByName(name string) (*Spec, error) {
	suiteOnce.Do(buildSuite)
	if s, ok := suiteByName[name]; ok {
		return s, nil
	}
	return nil, fmt.Errorf("workload: unknown workload %q", name)
}

// Names returns all workload names in suite order.
func Names() []string {
	suite := Suite()
	names := make([]string, len(suite))
	for i, s := range suite {
		names[i] = s.Name
	}
	return names
}

// ByCategory groups the suite by category, preserving order.
func ByCategory() map[Category][]*Spec {
	m := make(map[Category][]*Spec)
	for _, s := range Suite() {
		m[s.Category] = append(m[s.Category], s)
	}
	return m
}

// SmallSuite returns a reduced suite (one workload per archetype per
// category, 15 total) for fast tests and benchmarks.
func SmallSuite() []*Spec {
	seen := make(map[string]bool)
	var out []*Spec
	for _, s := range Suite() {
		key := string(s.Category) + "/" + archLabel(s.Name)
		if !seen[key] {
			seen[key] = true
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func archLabel(name string) string {
	// name is category-label-NN; extract the middle part.
	first, last := -1, -1
	for i, c := range name {
		if c == '-' {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	if first < 0 || last == first {
		return name
	}
	return name[first+1 : last]
}

func lower(s string) string {
	b := []byte(s)
	for i := range b {
		if b[i] >= 'A' && b[i] <= 'Z' {
			b[i] += 'a' - 'A'
		}
	}
	return string(b)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
