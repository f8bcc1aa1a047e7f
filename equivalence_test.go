// TestEngineEquivalence proves the dependency-tracked worklist engine
// and the full-pass fallback (Options.ForceFullPasses) compute identical
// results: same PTF counts, same collapsed Solution, same checker
// diagnostics, on every workload program. The engines may differ in
// Passes and NodesEvaluated — that is the point of the worklist — but
// never in any analysis fact. The Parallel tests prove the same of
// analyses that run at the same time in one process.
package wlpa_test

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"wlpa/internal/analysis"
	"wlpa/internal/check"
	"wlpa/internal/cparse"
	"wlpa/internal/libsum"
	"wlpa/internal/sem"
	"wlpa/internal/workload"
)

// runAnalysis runs one source through the analysis with the base
// options (lib summaries, solution collection, null tracking) plus the
// engine selector force.
func runAnalysis(name, src string, force bool) (*analysis.Analysis, error) {
	f, err := cparse.ParseSource(name, src)
	if err != nil {
		return nil, fmt.Errorf("%s: parse: %v", name, err)
	}
	prog, err := sem.Check(f)
	if err != nil {
		return nil, fmt.Errorf("%s: sem: %v", name, err)
	}
	an, err := analysis.New(prog, analysis.Options{
		Lib:             libsum.Summaries(),
		LibEffects:      libsum.Effects(),
		CollectSolution: true,
		TrackNull:       true,
		ForceFullPasses: force,
	})
	if err != nil {
		return nil, fmt.Errorf("%s: new: %v", name, err)
	}
	if err := an.Run(); err != nil {
		return nil, fmt.Errorf("%s: run (force=%v): %v", name, force, err)
	}
	return an, nil
}

// analyzeWith is runAnalysis on the test goroutine.
func analyzeWith(t *testing.T, name, src string, force bool) *analysis.Analysis {
	t.Helper()
	an, err := runAnalysis(name, src, force)
	if err != nil {
		t.Fatal(err)
	}
	return an
}

// solutionDump renders the collapsed solution deterministically: one
// line per location with sorted members, lines themselves sorted.
// Distinct blocks may share a display name (per-procedure temps), so
// the comparison is over the multiset of rendered lines.
func solutionDump(an *analysis.Analysis) string {
	sol := an.Solution()
	var lines []string
	for _, loc := range sol.Locations() {
		members := []string{}
		for _, v := range sol.PointsTo(loc).Locs() {
			members = append(members, v.String())
		}
		sort.Strings(members)
		lines = append(lines, loc.String()+" -> {"+strings.Join(members, ", ")+"}")
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// diagDump renders checker diagnostics deterministically.
func diagDump(t *testing.T, an *analysis.Analysis) string {
	t.Helper()
	diags, err := check.Run(an, check.Options{})
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	lines := make([]string, 0, len(diags))
	for _, d := range diags {
		lines = append(lines, d.String())
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// modrefDump renders the MOD/REF summary table deterministically.
func modrefDump(an *analysis.Analysis) string {
	return strings.Join(an.ModRef().Dump(), "\n")
}

// facts is everything the equivalence tests compare of one analysis.
type facts struct {
	stats                   analysis.Stats
	solution, diags, modref string
}

func factsOf(t *testing.T, an *analysis.Analysis) facts {
	t.Helper()
	return facts{an.Stats(), solutionDump(an), diagDump(t, an), modrefDump(an)}
}

// compareFacts reports every fact in which got differs from want.
func compareFacts(t *testing.T, got, want facts) {
	t.Helper()
	gs, ws := got.stats, want.stats
	if gs.PTFs != ws.PTFs {
		t.Errorf("PTFs = %d, want %d", gs.PTFs, ws.PTFs)
	}
	if gs.Procedures != ws.Procedures {
		t.Errorf("Procedures = %d, want %d", gs.Procedures, ws.Procedures)
	}
	for proc, n := range ws.PTFsPerProc {
		if gs.PTFsPerProc[proc] != n {
			t.Errorf("PTFs for %s = %d, want %d", proc, gs.PTFsPerProc[proc], n)
		}
	}
	for proc, n := range gs.PTFsPerProc {
		if _, ok := ws.PTFsPerProc[proc]; !ok {
			t.Errorf("%d PTFs for %s, want none", n, proc)
		}
	}
	if got.solution != want.solution {
		t.Errorf("solution dumps differ; first divergence:\n%s", firstDiff(got.solution, want.solution))
	}
	if got.diags != want.diags {
		t.Errorf("diagnostics differ:\n-- got --\n%s\n-- want --\n%s", got.diags, want.diags)
	}
	if got.modref != want.modref {
		t.Errorf("MOD/REF summaries differ; first divergence:\n%s", firstDiff(got.modref, want.modref))
	}
}

func firstDiff(got, want string) string {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			return "got:  " + gl[i] + "\nwant: " + wl[i]
		}
	}
	return "(length mismatch)"
}

// fanOutSource builds a program with n independent reader procedures
// (reader i loads through global pointer g_i into o_i) and one setup
// procedure that initializes every g_i. main runs readers-then-setup in
// a loop: the first trip summarizes and latches every reader call site
// with g_i still null, setup's stores make them non-empty, and the
// loop's back edge re-fires the latched sites. Each re-bind upgrades an
// empty input-domain entry (paper §5.2), so n summarized PTFs turn
// dirty at once — the shape where the two engines' evaluation orders
// differ most.
func fanOutSource(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "int a%d; int *p%d; int **g%d; int *o%d;\n", i, i, i, i)
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "void r%d(void) { o%d = *g%d; }\n", i, i, i)
	}
	b.WriteString("void setup(void)\n{\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "    p%d = &a%d;\n    g%d = &p%d;\n", i, i, i, i)
	}
	b.WriteString("}\n")
	b.WriteString("int main(void)\n{\n    int k;\n")
	b.WriteString("    for (k = 0; k < 2; k++) {\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "        r%d();\n", i)
	}
	b.WriteString("        setup();\n    }\n")
	b.WriteString("    return *o0;\n}\n")
	return b.String()
}

// fanOutInputs is fanOutSource at four widths.
func fanOutInputs() []workload.Benchmark {
	var inputs []workload.Benchmark
	for _, n := range []int{2, 4, 8, 16} {
		inputs = append(inputs, workload.Benchmark{Name: fmt.Sprintf("fanout%d", n), Source: fanOutSource(n)})
	}
	return inputs
}

// shapeInputs is the workload.FanOutShapes call cones.
func shapeInputs() []workload.Benchmark {
	var inputs []workload.Benchmark
	for _, s := range workload.FanOutShapes() {
		inputs = append(inputs, workload.Benchmark{Name: s.Name, Source: s.Source()})
	}
	return inputs
}

// fixtureInputs is the seeded-bug programs the checkers are validated on.
func fixtureInputs() []workload.Benchmark {
	var inputs []workload.Benchmark
	for name, src := range workload.BugFixtures() {
		inputs = append(inputs, workload.Benchmark{Name: name, Source: src})
	}
	sort.Slice(inputs, func(i, j int) bool { return inputs[i].Name < inputs[j].Name })
	return inputs
}

// checkEngines requires the worklist engine to match the full-pass
// reference on every input.
func checkEngines(t *testing.T, inputs []workload.Benchmark) {
	if len(inputs) == 0 {
		t.Fatal("no inputs")
	}
	for _, wb := range inputs {
		wb := wb
		t.Run(wb.Name, func(t *testing.T) {
			t.Parallel()
			wl := analyzeWith(t, wb.Name, wb.Source, false)
			full := analyzeWith(t, wb.Name, wb.Source, true)
			compareFacts(t, factsOf(t, wl), factsOf(t, full))
		})
	}
}

// concurrentRuns is how many analyses of one program checkConcurrent
// starts at once.
const concurrentRuns = 4

// checkConcurrent analyzes each input once on its own, then
// concurrentRuns more times at once, one goroutine each, and requires
// every concurrent run to match the lone one fact for fact. Analyses
// side by side in one process are the daemon's MaxInflight requests;
// each owns its memory, so nothing one allocates or interns may reach
// another's results, and under -race no write may be shared.
func checkConcurrent(t *testing.T, inputs []workload.Benchmark) {
	if len(inputs) == 0 {
		t.Fatal("no inputs")
	}
	for _, wb := range inputs {
		wb := wb
		t.Run(wb.Name, func(t *testing.T) {
			t.Parallel()
			alone := factsOf(t, analyzeWith(t, wb.Name, wb.Source, false))
			runs := make([]*analysis.Analysis, concurrentRuns)
			errs := make([]error, concurrentRuns)
			var wg sync.WaitGroup
			for i := range runs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					runs[i], errs[i] = runAnalysis(wb.Name, wb.Source, false)
				}(i)
			}
			wg.Wait()
			for i, an := range runs {
				if errs[i] != nil {
					t.Fatalf("concurrent run %d: %v", i, errs[i])
				}
				compareFacts(t, factsOf(t, an), alone)
			}
		})
	}
}

// TestEngineEquivalence runs the workload suite plus the fan-out
// programs, whose simultaneous sibling dirt the suite's call chains
// never show.
func TestEngineEquivalence(t *testing.T) {
	inputs := workload.Suite()
	if len(inputs) == 0 {
		t.Fatal("empty workload suite")
	}
	inputs = append(inputs, fanOutInputs()...)
	checkEngines(t, append(inputs, shapeInputs()...))
}

// TestEngineEquivalenceFixtures extends the comparison to the seeded-bug
// programs.
func TestEngineEquivalenceFixtures(t *testing.T) {
	checkEngines(t, fixtureInputs())
}

// TestEngineEquivalenceParallel proves concurrent analyses of a
// workload program are invisible in its results.
func TestEngineEquivalenceParallel(t *testing.T) {
	checkConcurrent(t, workload.Suite())
}

// TestEngineEquivalenceParallelFixtures does the same for the
// seeded-bug programs.
func TestEngineEquivalenceParallelFixtures(t *testing.T) {
	checkConcurrent(t, fixtureInputs())
}

// TestParallelFanOutEquivalence does the same for fanOutSource, where
// the most summarized PTFs turn dirty at once.
func TestParallelFanOutEquivalence(t *testing.T) {
	checkConcurrent(t, fanOutInputs())
}

// TestFanOutShapesBatchAndMatch does the same for the
// workload.FanOutShapes cones: each shape runs as a batch of concurrent
// analyses, and every one must match the lone run.
func TestFanOutShapesBatchAndMatch(t *testing.T) {
	checkConcurrent(t, shapeInputs())
}

// TestWorklistTimeout verifies that aborting mid-worklist leaves the
// statistics in a valid state.
func TestWorklistTimeout(t *testing.T) {
	wb, ok := workload.ByName("compiler")
	if !ok {
		t.Skip("compiler workload missing")
	}
	f, err := cparse.ParseSource(wb.Name, wb.Source)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := sem.Check(f)
	if err != nil {
		t.Fatal(err)
	}
	an, err := analysis.New(prog, analysis.Options{
		Lib:     libsum.Summaries(),
		Timeout: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := an.Run(); err != analysis.ErrTimeout {
		t.Fatalf("Run = %v, want ErrTimeout", err)
	}
	st := an.Stats()
	if st.Passes < 1 {
		t.Errorf("Passes = %d, want >= 1", st.Passes)
	}
	if st.PTFsPerProc == nil {
		t.Error("PTFsPerProc is nil after timeout")
	}
	if st.Duration <= 0 {
		t.Error("Duration not recorded after timeout")
	}
	if st.PTFs < 0 || st.Procedures < 0 {
		t.Errorf("negative stats after timeout: %+v", st)
	}
	// The partial state must still answer basic queries.
	if an.MainPTF() == nil {
		t.Error("MainPTF nil after timeout")
	}
}
