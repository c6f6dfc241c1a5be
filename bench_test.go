// Benchmark harness: one testing.B benchmark per table and figure in the
// paper's evaluation. Each bench runs the corresponding experiment driver
// end-to-end (workload generation, functional simulation, timing simulation,
// aggregation), so `go test -bench=.` regenerates every artifact and reports
// how long each costs. Set -bench-insts / -bench-full via the environment
// knobs below for larger runs.
package main

import (
	"io"
	"testing"

	"constable/internal/experiments"
	"constable/internal/sim"
	"constable/internal/workload"
)

// benchInstructions keeps `go test -bench=.` affordable while exercising
// every code path; cmd/experiments is the tool for full-scale runs.
const benchInstructions = 20_000

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	r := experiments.NewRunner(experiments.Config{
		Instructions: benchInstructions,
		FullSuite:    false,
		Out:          io.Discard,
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Run(id); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3(b *testing.B)   { benchExperiment(b, "fig3") }
func BenchmarkFig6(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)   { benchExperiment(b, "fig7") }
func BenchmarkFig9(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "tab1") }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "tab3") }
func BenchmarkFig11(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)  { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)  { benchExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B)  { benchExperiment(b, "fig15") }
func BenchmarkFig16(b *testing.B)  { benchExperiment(b, "fig16") }
func BenchmarkFig17(b *testing.B)  { benchExperiment(b, "fig17") }
func BenchmarkFig18(b *testing.B)  { benchExperiment(b, "fig18") }
func BenchmarkFig19(b *testing.B)  { benchExperiment(b, "fig19") }
func BenchmarkFig20(b *testing.B)  { benchExperiment(b, "fig20") }
func BenchmarkFig21(b *testing.B)  { benchExperiment(b, "fig21") }
func BenchmarkFig22(b *testing.B)  { benchExperiment(b, "fig22") }
func BenchmarkFig23(b *testing.B)  { benchExperiment(b, "fig23") }
func BenchmarkFig24(b *testing.B)  { benchExperiment(b, "fig24") }

// Ablations the paper reports inline (§6.6 AMT indexing, §6.7.3 context
// switches).
func BenchmarkAblationAMTIndex(b *testing.B)      { benchExperiment(b, "abl1") }
func BenchmarkAblationContextSwitch(b *testing.B) { benchExperiment(b, "abl2") }

// BenchmarkInterplay runs the mechanism-zoo interplay sweep (Constable ×
// bpred/prefetch axis variants); CI tracks it as BENCH_interplay.json.
func BenchmarkInterplay(b *testing.B) { benchExperiment(b, "interplay") }

// BenchmarkCoreLoop is the tracked metric for the simulator itself: one
// 50k-instruction baseline run per iteration, reported as simulated cycles
// and instructions per wall-clock second, with allocation counts so per-run
// setup cost is regression-checked in every CI artifact (BENCH_core.json).
func BenchmarkCoreLoop(b *testing.B) {
	const insts = 50_000
	spec := workload.SmallSuite()[0]
	b.ReportAllocs()
	var cycles uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(sim.Options{Workload: spec, Instructions: insts})
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
	b.ReportMetric(insts*float64(b.N)/b.Elapsed().Seconds(), "inst/s")
}

// BenchmarkConstableOverhead measures the simulation-speed cost of modelling
// Constable's structures on top of the baseline.
func BenchmarkConstableOverhead(b *testing.B) {
	spec := workload.SmallSuite()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(sim.Options{Workload: spec, Instructions: 50_000,
			Mech: sim.Mechanism{Constable: true}}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(50_000*float64(b.N)/b.Elapsed().Seconds(), "inst/s")
}
