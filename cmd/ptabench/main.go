// Command ptabench regenerates the paper's Table 2 (benchmark and
// analysis measurements), the §7 invocation-graph comparison, and the
// PTF reuse-policy ablation over the embedded benchmark suite, and
// writes the library's benchmark record.
//
// Usage:
//
//	ptabench [-table2] [-invoke] [-ablation benchmark] [-json file]
//	         [-cpuprofile file] [-memprofile file]
//
// -json writes one record per suite program (BENCH_ptabench.json), each
// the fastest of several runs, frontend excluded: Table 2's slice
// (analysis.Run alone), the whole-program analysis with collection, the
// snapshot build and encode with its size, a single-procedure statement
// tweak re-analyzed incrementally against a converged baseline versus
// cold, and Result.PointsToAt queries cold and against a held converged
// result.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"wlpa/internal/bench"
)

func main() {
	var (
		table2     = flag.Bool("table2", true, "run the Table 2 harness")
		invokeC    = flag.Bool("invoke", true, "run the invocation-graph comparison")
		ablation   = flag.String("ablation", "eqntott", "benchmark for the reuse-policy ablation (empty to skip)")
		jsonOut    = flag.String("json", "", "write per-program measurements (analysis, whole program, snapshot, warm edit, point queries) to this file")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *table2 {
		rows, err := bench.RunTable2()
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.FormatTable2(rows))
	}
	if *invokeC {
		rows, err := bench.RunInvokeComparison([]string{"compiler", "eqntott", "simulator"}, 1_000_000)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.FormatInvoke(rows))
	}
	if *ablation != "" {
		rows, err := bench.RunAblation(*ablation)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.FormatAblation(rows))
	}
	if *jsonOut != "" {
		if err := bench.WriteJSON(*jsonOut); err != nil {
			fatal(err)
		}
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "ptabench: %v\n", err)
	os.Exit(1)
}
