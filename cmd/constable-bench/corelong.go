package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"constable/internal/cache"
	"constable/internal/pipeline"
	"constable/internal/sim"
	"constable/internal/workload"
)

// runCoreLong runs long simulations one after another through sim.Run, the
// way a researcher studies one configuration in depth; the operation is one
// simulation. A round simulates one seeded instance of each of the suite's
// 15 workload archetypes under the baseline and under Constable. Per-run
// setup is a few percent of a run, so the cycle loop — pipeline, functional
// model, caches, Constable — does nearly all the work, and the service
// layers are not touched.
//
// The seed picks the instance of each archetype, the round order and the
// budget jitter. Drawing the same archetypes every round keeps the host cost
// of a round nearly independent of the seed: instances of one archetype
// differ in speed far less than archetypes do.
func runCoreLong(o options, tr *tracer) (*report, error) {
	rng := rand.New(rand.NewSource(o.seed))
	budget := uint64(o.scaled(300_000) + rng.Intn(1000))
	specs := archetypeInstances(rng)
	mechs := []sim.Mechanism{{}, {Constable: true}}
	rep := newReport()

	// Set-up: build every simulation of a round — functional model, cache
	// hierarchy, mechanism structures and core — without running it.
	var setups []float64
	for range 5 {
		t := processCPUTime()
		for _, s := range specs {
			for _, m := range mechs {
				if err := buildSimulation(s, m, budget); err != nil {
					return nil, err
				}
			}
		}
		setups = append(setups, (processCPUTime() - t).Seconds())
	}
	if _, err := sim.Run(sim.Options{Workload: specs[0], Instructions: 20_000}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	clock := &simClock{}
	run := tr.wrapRun(clock.wrap(sim.Run))
	first := map[string]resultDigest{}
	var runs, roundRates []float64
	alloc0 := readMem().TotalAlloc
	resetPeakRSS()
	clock.take()
	start := time.Now()
	for len(roundRates) == 0 || time.Since(start) < o.seconds {
		sp := tr.begin("bench.round", "", 0)
		round := time.Now()
		for _, s := range specs {
			for _, m := range mechs {
				rep.attempted++
				t := time.Now()
				res, err := run(sim.Options{Workload: s, Instructions: budget, Mech: m})
				if err != nil {
					rep.fail("%v", err)
					continue
				}
				runs = append(runs, ms(time.Since(t)))
				// Every round repeats the first: the simulator is deterministic.
				key := s.Name + "/" + sim.MechanismName(m)
				if want, ok := first[key]; !ok {
					first[key] = digestOf(res)
				} else if digestOf(res) != want {
					rep.fail("%s: round %d differs from round 1", key, len(roundRates)+1)
				}
			}
		}
		roundRates = append(roundRates, float64(len(specs)*len(mechs))/time.Since(round).Seconds())
		sp.end()
	}
	rep.phase = time.Since(start)

	rep.endToEnd["setup_s"] = median(setups)
	rep.endToEnd["op_p50_ms"] = median(runs)
	rep.endToEnd["cells_per_s"] = median(roundRates)
	rep.endToEnd["sim_minst_per_s"] = median(clock.take())
	rep.endToEnd["alloc_mib_per_cell"] = float64(readMem().TotalAlloc-alloc0) / mib / float64(max(len(runs), 1))
	rep.endToEnd["peak_rss_mib"] = peakRSSMiB()
	rep.diag["op_p95_ms"] = percentile(runs, 95)
	rep.diag["rounds"] = float64(len(roundRates))
	rep.diag["budget_inst"] = float64(budget)
	rep.specs = specs
	return rep, nil
}

// buildSimulation constructs, and discards, the models sim.Run would build
// for one run of spec under m.
func buildSimulation(spec *workload.Spec, m sim.Mechanism, budget uint64) error {
	att, _, _, err := m.NewAttachments()
	if err != nil {
		return err
	}
	st, err := spec.NewStream(false, budget)
	if err != nil {
		return err
	}
	cfg := pipeline.DefaultConfig()
	cfg.Threads = 1
	pipeline.NewCore(cfg, att, cache.NewHierarchy(cache.DefaultHierarchyConfig()), st)
	return nil
}

// archetypeInstances returns one seeded instance of every workload archetype
// in the suite (category plus kernel mix, e.g. "server-kvstore"), in seeded
// order.
func archetypeInstances(rng *rand.Rand) []*workload.Spec {
	byArch := map[string][]*workload.Spec{}
	var archs []string
	for _, s := range workload.Suite() {
		a := s.Name[:strings.LastIndex(s.Name, "-")]
		if byArch[a] == nil {
			archs = append(archs, a)
		}
		byArch[a] = append(byArch[a], s)
	}
	out := make([]*workload.Spec, len(archs))
	for i, a := range archs {
		out[i] = byArch[a][rng.Intn(len(byArch[a]))]
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
