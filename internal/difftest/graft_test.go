package difftest

import (
	"fmt"
	"strings"
	"testing"

	"wlpa/internal/workload"
	"wlpa/pta"
)

// TestGraftContextTraces compares the checker's context traces over a
// graft with a cold run's, on the two edits that showed the defect: a
// survivor adopted from the graft's cache kept no home context when its
// baseline creator was dropped, so every trace through it stopped there
// (lex315's leak read "(in new_token)" against the cold run's "(in main
// -> scan_input -> scan_token -> new_token)"). The base result is
// checked before it becomes the baseline, as the daemon's is.
func TestGraftContextTraces(t *testing.T) {
	lex := -1
	for i, b := range workload.Suite() {
		if b.Name == "lex315" {
			lex = i
		}
	}
	inputs := []struct {
		seed      int64
		raw, kind uint32
	}{
		{int64(lex), BenchmarkBit, uint32(workload.EditBodyTweak)},
		{1, uint32(workload.AllFeatures()), uint32(workload.EditBodyTweak)},
	}
	for _, in := range inputs {
		name, base, edited := DecodeEditInput(in.seed, in.raw, in.kind)
		cold, err := pta.AnalyzeSource(name, edited, nil)
		if err != nil {
			t.Fatal(err)
		}
		baseRes, err := pta.AnalyzeSource(name, base, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := baseRes.Check(nil); err != nil {
			t.Fatal(err)
		}
		bl, err := pta.NewBaseline(baseRes, nil)
		if err != nil {
			t.Fatal(err)
		}
		graft, err := pta.AnalyzeIncremental(bl, pta.Source{name: edited}, name, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st := graft.Incremental(); st == nil || st.Fallback != "" {
			t.Fatalf("%s: graft did not engage: %+v", name, st)
		}
		want, got := traces(t, cold), traces(t, graft)
		if want != got {
			t.Errorf("%s: graft traces differ from cold:\n%s", name, firstDiff(got, want))
		}
		if in.raw == BenchmarkBit && !strings.Contains(want, "main -> scan_input -> scan_token -> new_token") {
			t.Errorf("%s: the cold leak report lost its context chain: the comparison is vacuous", name)
		}
	}
}

// traces renders a result's diagnostics with their context chains.
func traces(t *testing.T, r *pta.Result) string {
	t.Helper()
	diags, err := r.Check(nil)
	if err != nil {
		t.Fatal(err)
	}
	return renderDiags(diags)
}

// TestGraftAllocSitesReached pins the allocation sites of a graft to
// the ones its run reached. Heap blocks are keyed by source position
// and outlive the graft, so an edit that stops calling a clean
// procedure used to leave its malloc listed (and reported as a leak)
// although the edited program never reaches it.
func TestGraftAllocSitesReached(t *testing.T) {
	const prog = `#include <stdlib.h>
int *g;
void f(void) { g = malloc(4); }
void h(void) { int *q = malloc(8); }
int main(void) {
%s	h();
	return 0;
}
`
	base, edited := fmt.Sprintf(prog, "\tf();\n"), fmt.Sprintf(prog, "")
	if err := CheckIncremental("unreached.c", base, edited, Options{}); err != nil {
		t.Fatal(err)
	}
}
