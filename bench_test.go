// Benchmarks regenerating every evaluation artifact of Wilson & Lam,
// PLDI 1995. One benchmark per table/figure:
//
//	BenchmarkTable2/<name>    — analysis time per benchmark program (Table 2)
//	BenchmarkTable3/<name>    — parallelization pipeline (Table 3)
//	BenchmarkInvocationGraph  — §7 invocation-graph comparison
//	BenchmarkAblationPolicy/* — §2.2 reuse-policy trade-off
//	BenchmarkFigure1          — the running example (Figures 1, 3, 4)
//
// Run with: go test -bench=. -benchmem
package wlpa_test

import (
	"fmt"
	"runtime"
	"testing"

	"wlpa/internal/analysis"
	"wlpa/internal/baseline/andersen"
	"wlpa/internal/baseline/invoke"
	"wlpa/internal/baseline/steensgaard"
	"wlpa/internal/bench"
	"wlpa/internal/cparse"
	"wlpa/internal/libsum"
	"wlpa/internal/parallel"
	"wlpa/internal/sem"
	"wlpa/internal/workload"
	"wlpa/pta"
)

func mustProgram(b *testing.B, name, src string) *sem.Program {
	b.Helper()
	f, err := cparse.ParseSource(name, src)
	if err != nil {
		b.Fatalf("parse: %v", err)
	}
	prog, err := sem.Check(f)
	if err != nil {
		b.Fatalf("sem: %v", err)
	}
	return prog
}

// BenchmarkTable2 measures the PTF analysis per benchmark — the paper's
// Table 2 "Analysis (seconds)" column. The reported metric to compare
// with the paper is ns/op per program plus the avg-PTFs metric.
func BenchmarkTable2(b *testing.B) {
	for _, wb := range workload.Suite() {
		wb := wb
		b.Run(wb.Name, func(b *testing.B) {
			var avg float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				prog := mustProgram(b, wb.Name, wb.Source)
				an, err := analysis.New(prog, analysis.Options{Lib: libsum.Summaries()})
				if err != nil {
					b.Fatal(err)
				}
				// Retire the setup garbage now so the timed region pays
				// only for collections its own allocation provokes.
				runtime.GC()
				b.StartTimer()
				if err := an.Run(); err != nil {
					b.Fatal(err)
				}
				avg = an.Stats().AvgPTFs()
			}
			b.ReportMetric(avg, "PTFs/proc")
		})
	}
}

// BenchmarkTable3 runs the full parallelization pipeline (analysis +
// classification + profile + cost model) for the Table 3 programs and
// reports the table's derived metrics.
func BenchmarkTable3(b *testing.B) {
	for _, name := range []string{"alvinn", "ear"} {
		name := name
		wb, ok := workload.ByName(name)
		if !ok {
			b.Fatalf("missing %s", name)
		}
		b.Run(name, func(b *testing.B) {
			var rep *parallel.Report
			for i := 0; i < b.N; i++ {
				prog := mustProgram(b, name, wb.Source)
				an, err := analysis.New(prog, analysis.Options{
					Lib: libsum.Summaries(), CollectSolution: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := an.Run(); err != nil {
					b.Fatal(err)
				}
				rep, err = parallel.BuildReport(name, prog, parallel.New(prog, an), 80_000_000)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.PercentParallel, "%parallel")
			b.ReportMetric(rep.Speedup(2), "speedup2p")
			b.ReportMetric(rep.Speedup(4), "speedup4p")
		})
	}
}

// BenchmarkInvocationGraph reproduces the §7 comparison: the size of the
// Emami-style invocation graph vs the number of PTFs.
func BenchmarkInvocationGraph(b *testing.B) {
	wb, ok := workload.ByName("compiler")
	if !ok {
		b.Fatal("missing compiler")
	}
	var nodes int64
	for i := 0; i < b.N; i++ {
		prog := mustProgram(b, "compiler", wb.Source)
		st, err := invoke.Build(prog, 1_000_000)
		if err != nil {
			b.Fatal(err)
		}
		nodes = st.Nodes
	}
	b.ReportMetric(float64(nodes), "IG-nodes")
}

// BenchmarkAblationPolicy compares the reuse policies on eqntott (the
// §2.2 trade-off between PTF complexity and applicability).
func BenchmarkAblationPolicy(b *testing.B) {
	wb, ok := workload.ByName("eqntott")
	if !ok {
		b.Fatal("missing eqntott")
	}
	policies := []struct {
		name  string
		reuse analysis.ReusePolicy
	}{
		{"alias-pattern", analysis.ReuseByAliasPattern},
		{"never-reuse", analysis.NeverReuse},
		{"single-summary", analysis.SingleSummary},
	}
	for _, pol := range policies {
		pol := pol
		b.Run(pol.name, func(b *testing.B) {
			var ptfs int
			for i := 0; i < b.N; i++ {
				prog := mustProgram(b, "eqntott", wb.Source)
				an, err := analysis.New(prog, analysis.Options{
					Lib: libsum.Summaries(), Reuse: pol.reuse, MaxTotalPTFs: 400,
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := an.Run(); err != nil && err != analysis.ErrTimeout {
					b.Fatal(err)
				}
				ptfs = an.Stats().PTFs
			}
			b.ReportMetric(float64(ptfs), "PTFs")
		})
	}
}

// BenchmarkFigure1 measures the running example end to end through the
// public API (Figures 1, 3 and 4: two PTFs for f).
func BenchmarkFigure1(b *testing.B) {
	const figure1 = `
int test1, test2;
int x, y, z;
int *x0, *y0, *z0;
void f(int **p, int **q, int **r) { *p = *q; *q = *r; }
int main(void) {
    x0 = &x; y0 = &y; z0 = &z;
    if (test1) f(&x0, &y0, &z0);
    else if (test2) f(&z0, &x0, &y0);
    else f(&x0, &y0, &x0);
    return 0;
}`
	var nptf int
	for i := 0; i < b.N; i++ {
		res, err := pta.AnalyzeSource("figure1.c", figure1, nil)
		if err != nil {
			b.Fatal(err)
		}
		nptf = res.NumPTFs("f")
	}
	if nptf != 2 {
		b.Fatalf("PTFs for f = %d, want 2", nptf)
	}
	b.ReportMetric(float64(nptf), "PTFs-for-f")
}

// BenchmarkBaselines compares the cost of the three analyses on the same
// program (context-sensitive PTF vs Andersen vs Steensgaard).
func BenchmarkBaselines(b *testing.B) {
	wb, ok := workload.ByName("assembler")
	if !ok {
		b.Fatal("missing assembler")
	}
	b.Run("wilson-lam", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			prog := mustProgram(b, "assembler", wb.Source)
			an, err := analysis.New(prog, analysis.Options{Lib: libsum.Summaries()})
			if err != nil {
				b.Fatal(err)
			}
			if err := an.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("andersen", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			prog := mustProgram(b, "assembler", wb.Source)
			if _, err := andersen.Analyze(prog); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("steensgaard", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			prog := mustProgram(b, "assembler", wb.Source)
			if _, err := steensgaard.Analyze(prog); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestRegenerateTables is not a benchmark but prints the paper-vs-
// measured tables when run with -v; EXPERIMENTS.md records a snapshot.
func TestRegenerateTables(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows2, err := bench.RunTable2()
	if err != nil {
		t.Fatal(err)
	}
	fmt.Println(bench.FormatTable2(rows2))
	rows3, err := bench.RunTable3()
	if err != nil {
		t.Fatal(err)
	}
	fmt.Println(bench.FormatTable3(rows3))
	inv, err := bench.RunInvokeComparison([]string{"compiler", "eqntott", "simulator"}, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Println(bench.FormatInvoke(inv))
	abl, err := bench.RunAblation("eqntott")
	if err != nil {
		t.Fatal(err)
	}
	fmt.Println(bench.FormatAblation(abl))
}
