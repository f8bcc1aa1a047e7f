package check_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"wlpa/internal/check"
	"wlpa/internal/workload"
)

// TestGenPruneExact pins the dataflow engine's Gen pruning as exact: on
// every input, the diagnostics of the pruned typestate and taint clients
// equal those of the same clients with Gen = nil, which walk every
// context and every summary. Inputs are the benchmark suite, the bug
// fixtures and 200 generated programs with the typestate and taint
// features (80 with all features, 120 with
// typestate|taint|recursion|funcptrs; two of each at 6 functions x 10
// statements).
func TestGenPruneExact(t *testing.T) {
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
	masks := []struct {
		feat  workload.Feature
		seeds int64
	}{
		{workload.AllFeatures(), 80},
		{workload.FeatTypestate | workload.FeatTaint | workload.FeatRecursion | workload.FeatFuncPtrs, 120},
	}
	for _, mask := range masks {
		for seed := int64(0); seed < mask.seeds; seed++ {
			cfg := workload.FuzzGenConfig(seed, uint32(mask.feat))
			if seed < 2 {
				cfg.NumFuncs, cfg.StmtsPerFunc = 6, 10
			}
			name := fmt.Sprintf("gen(seed=%d,feat=%s,%dx%d)", seed, mask.feat, cfg.NumFuncs, cfg.StmtsPerFunc)
			inputs = append(inputs, input{name, workload.Generate(cfg)})
		}
	}
	render := func(diags []check.Diagnostic) (string, int) {
		lines := make([]string, len(diags))
		flows := 0
		for i, d := range diags {
			lines[i] = d.String()
			switch d.Check {
			case "useafterclose", "doubleclose", "fileleak", "taintflow", "taintfmt":
				flows++
			}
		}
		return strings.Join(lines, "\n"), flows
	}
	opts := check.Options{}
	flows := 0
	for _, in := range inputs {
		a := analyze(t, in.name, in.src)
		pruned, n := render(run(t, a, opts))
		diags, err := check.RunUngated(a, opts)
		if err != nil {
			t.Fatalf("%s: unpruned check.Run: %v", in.name, err)
		}
		full, _ := render(diags)
		if pruned != full {
			t.Errorf("%s: pruned diagnostics differ from the unpruned walk\n-- pruned --\n%s\n-- unpruned --\n%s", in.name, pruned, full)
		}
		flows += n
	}
	if flows == 0 {
		t.Fatal("no typestate or taint diagnostic on any input: the comparison is vacuous")
	}
	t.Logf("%d inputs, %d typestate/taint diagnostics", len(inputs), flows)
}
