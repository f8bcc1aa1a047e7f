package bench

import (
	"fmt"
	"strings"
	"time"

	"wlpa/internal/analysis"
	"wlpa/internal/baseline/invoke"
	"wlpa/internal/cparse"
	"wlpa/internal/libsum"
	"wlpa/internal/parallel"
	"wlpa/internal/sem"
	"wlpa/internal/workload"
)

// Table2Row is one row of the paper's Table 2.
type Table2Row struct {
	Name       string
	Lines      int
	Procedures int
	Analysis   time.Duration
	AvgPTFs    float64

	PaperLines   int
	PaperProcs   int
	PaperSeconds float64
	PaperPTFs    float64
}

// RunTable2One analyzes one benchmark and produces its row. The time is
// the emission's Table 2 slice (measureAnalysis): analysis.Run alone,
// excluding the frontend and flow-graph construction, matching the
// paper's methodology ("these times do not include the overhead for
// reading the procedures ... building flow graphs"), fastest of
// measureRounds runs.
func RunTable2One(b workload.Benchmark) (Table2Row, error) {
	row := Table2Row{
		Name: b.Name, Lines: workload.CountLines(b.Source),
		PaperLines: b.PaperLines, PaperProcs: b.PaperProcs,
		PaperSeconds: b.PaperSeconds, PaperPTFs: b.PaperPTFs,
	}
	ns, _, st, err := measureAnalysis(b)
	if err != nil {
		return row, err
	}
	row.Analysis = time.Duration(ns)
	row.Procedures = st.Procedures
	row.AvgPTFs = st.AvgPTFs()
	return row, nil
}

// prepare runs the frontend (parse and typecheck) over one source: the
// part of the pipeline every harness here leaves out of its timings.
func prepare(name, src string) (*sem.Program, error) {
	f, err := cparse.ParseSource(name, src)
	if err != nil {
		return nil, fmt.Errorf("%s: parse: %w", name, err)
	}
	prog, err := sem.Check(f)
	if err != nil {
		return nil, fmt.Errorf("%s: sem: %w", name, err)
	}
	return prog, nil
}

// RunTable2 produces every row, in the paper's order.
func RunTable2() ([]Table2Row, error) {
	var rows []Table2Row
	for _, b := range workload.Suite() {
		row, err := RunTable2One(b)
		if err != nil {
			return rows, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable2 renders the rows the way the paper prints them, with the
// paper's reference values alongside.
func FormatTable2(rows []Table2Row) string {
	var sb strings.Builder
	sb.WriteString("Table 2: Benchmark and Analysis Measurements\n")
	sb.WriteString("                    ---- measured ----------------   ---- paper (1995) ------------\n")
	sb.WriteString("Benchmark            Lines  Procs  Analysis   PTFs    Lines  Procs  Seconds   PTFs\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-18s %7d %6d %9s %6.2f  %7d %6d %8.2f %6.2f\n",
			r.Name, r.Lines, r.Procedures,
			fmtDuration(r.Analysis), r.AvgPTFs,
			r.PaperLines, r.PaperProcs, r.PaperSeconds, r.PaperPTFs)
	}
	return sb.String()
}

func fmtDuration(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%.0fµs", float64(d.Microseconds()))
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// Table3Row is one row of the paper's Table 3.
type Table3Row struct {
	Name            string
	PercentParallel float64
	AvgPerLoop      float64 // cost units per parallel-loop invocation
	Speedup2        float64
	Speedup4        float64

	PaperPercent  float64
	PaperMsP      float64 // per loop, milliseconds
	PaperSpeedup2 float64
	PaperSpeedup4 float64

	// Report is the per-loop classification the row summarizes.
	Report *parallel.Report
}

// RunTable3 reproduces Table 3 for alvinn and ear.
func RunTable3() ([]Table3Row, error) {
	paper := map[string][4]float64{
		"alvinn": {97.7, 7.4, 1.95, 3.50},
		"ear":    {85.8, 0.2, 1.42, 1.63},
	}
	var rows []Table3Row
	for _, name := range []string{"alvinn", "ear"} {
		b, ok := workload.ByName(name)
		if !ok {
			return rows, fmt.Errorf("benchmark %s missing", name)
		}
		prog, err := prepare(name, b.Source)
		if err != nil {
			return rows, err
		}
		an, err := analysis.New(prog, analysis.Options{
			Lib: libsum.Summaries(), CollectSolution: true,
		})
		if err != nil {
			return rows, err
		}
		if err := an.Run(); err != nil {
			return rows, err
		}
		rep, err := parallel.BuildReport(name, prog, parallel.New(prog, an), 80_000_000)
		if err != nil {
			return rows, err
		}
		p := paper[name]
		rows = append(rows, Table3Row{
			Name:            name,
			PercentParallel: rep.PercentParallel,
			AvgPerLoop:      rep.AvgCostPerInvocation,
			Speedup2:        rep.Speedup(2),
			Speedup4:        rep.Speedup(4),
			PaperPercent:    p[0],
			PaperMsP:        p[1],
			PaperSpeedup2:   p[2],
			PaperSpeedup4:   p[3],
			Report:          rep,
		})
	}
	return rows, nil
}

// FormatTable3 renders Table 3 with the paper's values alongside.
func FormatTable3(rows []Table3Row) string {
	var sb strings.Builder
	sb.WriteString("Table 3: Measurements of Parallelized Programs\n")
	sb.WriteString("          -------- measured --------------   ------- paper (1995) ----------\n")
	sb.WriteString("Program   %Par   Units/Loop  2Proc  4Proc    %Par   ms/Loop   2Proc  4Proc\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-8s %5.1f  %10.1f  %5.2f  %5.2f    %5.1f  %7.1f   %5.2f  %5.2f\n",
			r.Name, r.PercentParallel, r.AvgPerLoop, r.Speedup2, r.Speedup4,
			r.PaperPercent, r.PaperMsP, r.PaperSpeedup2, r.PaperSpeedup4)
	}
	return sb.String()
}

// InvokeRow compares the invocation-graph size against PTF counts.
type InvokeRow struct {
	Name        string
	Procedures  int
	PTFs        int
	InvokeNodes int64
	Capped      bool
}

// RunInvokeComparison reproduces the §7 invocation-graph observation for
// the given benchmarks.
func RunInvokeComparison(names []string, cap int64) ([]InvokeRow, error) {
	var rows []InvokeRow
	for _, name := range names {
		b, ok := workload.ByName(name)
		if !ok {
			return rows, fmt.Errorf("benchmark %s missing", name)
		}
		prog, err := prepare(name, b.Source)
		if err != nil {
			return rows, err
		}
		an, err := analysis.New(prog, analysis.Options{Lib: libsum.Summaries()})
		if err != nil {
			return rows, err
		}
		if err := an.Run(); err != nil {
			return rows, err
		}
		ig, err := invoke.Build(prog, cap)
		if err != nil {
			return rows, err
		}
		rows = append(rows, InvokeRow{
			Name:        name,
			Procedures:  an.Stats().Procedures,
			PTFs:        an.Stats().PTFs,
			InvokeNodes: ig.Nodes,
			Capped:      ig.Capped,
		})
	}
	return rows, nil
}

// FormatInvoke renders the comparison.
func FormatInvoke(rows []InvokeRow) string {
	var sb strings.Builder
	sb.WriteString("Invocation-graph size (Emami et al.) vs PTFs (this paper, §7)\n")
	sb.WriteString("Benchmark           Procs    PTFs   Invocation-graph nodes\n")
	for _, r := range rows {
		capped := ""
		if r.Capped {
			capped = "+ (capped)"
		}
		fmt.Fprintf(&sb, "%-18s %6d  %6d   %d%s\n",
			r.Name, r.Procedures, r.PTFs, r.InvokeNodes, capped)
	}
	return sb.String()
}

// AblationRow compares the PTF reuse policies (§2.2 trade-off).
type AblationRow struct {
	Name     string
	Policy   string
	PTFs     int
	AvgPTFs  float64
	Duration time.Duration
	// Capped reports the policy blew through the context budget and
	// had to merge contexts (the Emami-style explosion).
	Capped bool
}

// RunAblation analyzes a benchmark under each reuse policy.
func RunAblation(name string) ([]AblationRow, error) {
	b, ok := workload.ByName(name)
	if !ok {
		return nil, fmt.Errorf("benchmark %s missing", name)
	}
	policies := []struct {
		label   string
		reuse   analysis.ReusePolicy
		combine bool
	}{
		{"alias-pattern (paper)", analysis.ReuseByAliasPattern, false},
		{"alias+combine-offsets", analysis.ReuseByAliasPattern, true},
		{"never-reuse (Emami)", analysis.NeverReuse, false},
		{"single-summary", analysis.SingleSummary, false},
	}
	var rows []AblationRow
	for _, pol := range policies {
		prog, err := prepare(name, b.Source)
		if err != nil {
			return rows, err
		}
		an, err := analysis.New(prog, analysis.Options{
			Lib: libsum.Summaries(), Reuse: pol.reuse,
			CombineOffsets: pol.combine,
			// Bound the exponential policies; hitting the budget IS
			// the measured result.
			MaxTotalPTFs: 400,
			Timeout:      20 * time.Second,
		})
		if err != nil {
			return rows, err
		}
		start := time.Now()
		runErr := an.Run()
		label := pol.label
		if runErr == analysis.ErrTimeout {
			label += " [TIMED OUT]"
		} else if runErr != nil {
			return rows, runErr
		}
		st := an.Stats()
		rows = append(rows, AblationRow{
			Name: name, Policy: label, PTFs: st.PTFs,
			AvgPTFs: st.AvgPTFs(), Duration: time.Since(start),
			Capped: st.PTFsCapped || runErr == analysis.ErrTimeout,
		})
	}
	return rows, nil
}

// FormatAblation renders the policy comparison.
func FormatAblation(rows []AblationRow) string {
	var sb strings.Builder
	if len(rows) > 0 {
		fmt.Fprintf(&sb, "PTF reuse-policy ablation: %s\n", rows[0].Name)
	}
	sb.WriteString("Policy                     PTFs   PTFs/proc   Time\n")
	for _, r := range rows {
		capped := ""
		if r.Capped {
			capped = "  (hit context budget)"
		}
		fmt.Fprintf(&sb, "%-24s %6d   %9.2f   %s%s\n",
			r.Policy, r.PTFs, r.AvgPTFs, fmtDuration(r.Duration), capped)
	}
	return sb.String()
}
