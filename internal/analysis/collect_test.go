package analysis_test

import (
	"fmt"
	"strings"
	"testing"

	"wlpa/internal/analysis"
	"wlpa/internal/libsum"
	"wlpa/internal/workload"
)

// singleProcEditBase is pta's one-procedure edit program: editing h
// leaves f and g clean, so a graft restores their PTFs.
const singleProcEditBase = `
int gx, gy;
int *fp, *gp;
int hx, hy;
int *hp;
void g(void) { gp = &gy; }
void f(void) { fp = &gx; g(); }
void h(void) { hp = &hx; }
int main(void) { f(); h(); return 0; }
`

// checkCollectVisits fails unless the solution-collection pass of a
// made at least main's visit and no more visits than a has PTFs, and
// swept each visited PTF once, plus once more after each sweep that
// changed it.
func checkCollectVisits(t *testing.T, a *analysis.Analysis) {
	t.Helper()
	st := a.Stats()
	if v, n := a.CollectVisits(), st.PTFs; v == 0 || v > n {
		t.Errorf("collection made %d PTF visits for %d PTFs", v, n)
	}
	if st.CollectSweeps != a.CollectVisits()+st.CollectGrowths {
		t.Errorf("collection made %d sweeps for %d visits and %d growing sweeps",
			st.CollectSweeps, a.CollectVisits(), st.CollectGrowths)
	}
}

// TestCollectionVisitsEachPTFOnce checks that the solution-collection
// pass descends into each PTF at most once. A revisit re-walks the
// callee's whole subtree from every call site, which doubles the visits
// at each level of a call chain (loader: 619 visits for 24 PTFs). It
// also checks that a visit confirms a converged PTF in one sweep. It
// covers the suite, the bug fixtures and a generated set with both
// engines, and a grafted result.
func TestCollectionVisitsEachPTFOnce(t *testing.T) {
	progs := map[string]string{}
	for _, b := range workload.Suite() {
		progs[b.Name] = b.Source
	}
	for name, src := range workload.BugFixtures() {
		progs["bug_"+name] = src
	}
	for s := int64(1); s <= 32; s++ {
		progs[fmt.Sprintf("gen_fuzz_%02d", s)] = workload.Generate(workload.FuzzGenConfig(s, uint32(s*2654435761)))
	}
	for name, src := range progs {
		for _, full := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/full=%v", name, full), func(t *testing.T) {
				a, _ := runOpts(t, src, analysis.Options{
					LibEffects: libsum.Effects(), CollectSolution: true, ForceFullPasses: full,
				})
				checkCollectVisits(t, a)
			})
		}
	}
	t.Run("graft/single-proc-edit", func(t *testing.T) {
		edited := strings.Replace(singleProcEditBase, "hp = &hx;", "hp = &hy;", 1)
		a, base := runOpts(t, singleProcEditBase, analysis.Options{CollectSolution: true})
		graft(t, a, base, edited)
		if a.RestoredPTFs() == 0 {
			t.Fatal("the graft restored no PTF")
		}
		checkCollectVisits(t, a)
	})
}
