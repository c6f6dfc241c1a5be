// Command loadinspector is the reproduction of the paper's Load Inspector
// tool (§4.1–4.2): it analyzes a workload's dynamic instruction stream and
// reports global-stable loads, their addressing modes, and their
// inter-occurrence distances.
//
// Usage:
//
//	loadinspector -workload client-browser-00 -n 500000
//	loadinspector -all            # summary over the whole suite
//	loadinspector -workload enterprise-appserver-00 -apx
package main

import (
	"flag"
	"fmt"
	"log"

	"constable/internal/inspector"
	"constable/internal/sim"
	"constable/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadinspector: ")

	var (
		name = flag.String("workload", "", "workload to analyze (empty with -all for the suite)")
		n    = flag.Uint64("n", 300_000, "dynamic instructions to analyze")
		apx  = flag.Bool("apx", false, "analyze the 32-register (APX) build")
		all  = flag.Bool("all", false, "summarize every workload in the suite")
	)
	flag.Parse()

	switch {
	case *all:
		var loads, stable uint64
		for _, spec := range workload.Suite() {
			ins, err := sim.StableAnalysis(spec, *apx, *n)
			if err != nil {
				log.Fatal(err)
			}
			rep := ins.Report()
			fmt.Printf("%-30s %5.1f%% global-stable (%d loads)\n",
				spec.Name, 100*rep.GlobalStableFraction(), rep.DynLoads)
			loads += rep.DynLoads
			stable += rep.GlobalStableDynLoads
		}
		fmt.Printf("%-30s %5.1f%% global-stable (paper: 34.2%%)\n", "AVG",
			100*float64(stable)/float64(loads))
	case *name != "":
		spec, err := workload.ByName(*name)
		if err != nil {
			log.Fatal(err)
		}
		ins, err := sim.StableAnalysis(spec, *apx, *n)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(ins.Report())
		printModeDistances(ins)
	default:
		log.Fatal("pass -workload <name> or -all (see constable-sim -list for names)")
	}
}

func printModeDistances(ins *inspector.Inspector) {
	rep := ins.Report()
	fmt.Println("inter-occurrence distance per addressing mode:")
	for _, m := range []string{"pc-rel", "stack-rel", "reg-rel"} {
		dd := rep.ByModeDistance[m]
		var total uint64
		for _, v := range dd {
			total += v
		}
		if total == 0 {
			continue
		}
		fmt.Printf("  %-10s", m)
		for _, b := range inspector.DistanceBuckets {
			fmt.Printf("  %s %4.1f%%", b, 100*float64(dd[b])/float64(total))
		}
		fmt.Println()
	}
}
