package analysis_test

import (
	"fmt"
	"sort"
	"testing"

	"wlpa/internal/analysis"
	"wlpa/internal/check"
	"wlpa/internal/cparse"
	"wlpa/internal/libsum"
	"wlpa/internal/sem"
	"wlpa/internal/workload"
)

// TestBindingsAtMatchesFreshDerivation pins the bindings BindingsAt
// shares from the MOD/REF table: after a full checker run has read
// them, every call edge's bindings still equal a fresh derivation,
// compared after resolution. Inputs are the benchmark suite, the bug
// fixtures and 100 all-features generated programs (the first two at
// 6 functions x 10 statements), analyzed the way the checkers analyze
// them.
func TestBindingsAtMatchesFreshDerivation(t *testing.T) {
	type input struct{ name, src string }
	var inputs []input
	for _, b := range workload.Suite() {
		inputs = append(inputs, input{b.Name, b.Source})
	}
	fixtures := workload.BugFixtures()
	var names []string
	for name := range fixtures {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		inputs = append(inputs, input{"bug_" + name, fixtures[name]})
	}
	for seed := int64(0); seed < 100; seed++ {
		cfg := workload.FuzzGenConfig(seed, uint32(workload.AllFeatures()))
		if seed < 2 {
			cfg.NumFuncs, cfg.StmtsPerFunc = 6, 10
		}
		inputs = append(inputs, input{fmt.Sprintf("gen(seed=%d)", seed), workload.Generate(cfg)})
	}
	edges, bound := 0, 0
	for _, in := range inputs {
		file, err := cparse.ParseSource(in.name+".c", in.src)
		if err != nil {
			t.Fatalf("%s: parse: %v", in.name, err)
		}
		prog, err := sem.Check(file)
		if err != nil {
			t.Fatalf("%s: sem: %v", in.name, err)
		}
		a, err := analysis.New(prog, analysis.Options{
			Lib:             libsum.Summaries(),
			LibEffects:      libsum.Effects(),
			CollectSolution: true,
		})
		if err != nil {
			t.Fatalf("%s: analysis.New: %v", in.name, err)
		}
		if err := a.Run(); err != nil {
			t.Fatalf("%s: analysis: %v", in.name, err)
		}
		if _, err := check.Run(a, check.Options{}); err != nil {
			t.Fatalf("%s: check.Run: %v", in.name, err)
		}
		for _, e := range a.CallGraphEdges() {
			got := a.BindingsAt(e.Caller, e.Node, e.Callee)
			want := a.EdgeBindings(e.Caller, e.Node, e.Callee)
			edge := fmt.Sprintf("%s: %s -> %s at %s", in.name, e.Caller.Proc.Name, e.Callee.Proc.Name, e.Node.Pos)
			if len(got) != len(want) {
				t.Errorf("%s: BindingsAt binds %d parameters, a fresh derivation %d", edge, len(got), len(want))
				continue
			}
			for p, w := range want {
				if g, ok := got[p.Representative()]; !ok || !g.Equal(w) {
					t.Errorf("%s: parameter %s bound to %v, a fresh derivation gives %v", edge, p.Name, g, w)
				}
			}
			edges++
			bound += len(want)
		}
	}
	if bound == 0 {
		t.Fatal("no call edge binds a parameter: the comparison is vacuous")
	}
	t.Logf("%d inputs, %d call edges, %d bound parameters", len(inputs), edges, bound)
}
