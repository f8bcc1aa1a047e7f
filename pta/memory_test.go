//go:build go1.24

package pta

import (
	"runtime"
	"testing"
	"weak"

	"wlpa/internal/analysis"
	"wlpa/internal/cfg"
	"wlpa/internal/workload"
)

// collected reports whether the objects behind every weak pointer are
// gone after two forced collections.
func collected[T any](ptrs ...weak.Pointer[T]) bool {
	runtime.GC()
	runtime.GC()
	for _, p := range ptrs {
		if p.Value() != nil {
			return false
		}
	}
	return true
}

// dropAnalysis analyzes src and returns weak pointers to its main PTF
// and main flow graph; the result itself is dropped on return.
func dropAnalysis(t *testing.T, name, src string) (weak.Pointer[analysis.PTF], weak.Pointer[cfg.Proc]) {
	t.Helper()
	r, err := AnalyzeSource(name, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	return weak.Make(r.an.MainPTF()), weak.Make(r.an.Proc("main"))
}

// TestDroppedAnalysisIsCollected pins that an analysis owns its memory:
// once its Result is dropped, its PTFs and flow graphs are garbage even
// while another analysis is live. Storage carved from chunks shared
// across analyses would keep the dead one reachable from the live one.
func TestDroppedAnalysisIsCollected(t *testing.T) {
	wb, ok := workload.ByName("compiler")
	if !ok {
		t.Skip("compiler workload missing")
	}
	mainPTF, mainProc := dropAnalysis(t, "first.c", wb.Source)
	second, err := AnalyzeSource("second.c", wb.Source, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !collected(mainPTF) {
		t.Error("dropped analysis's main PTF is still reachable")
	}
	if !collected(mainProc) {
		t.Error("dropped analysis's main flow graph is still reachable")
	}
	runtime.KeepAlive(second)
}

// TestChainedGraftsReleaseDroppedState pins that a chain of warm-edit
// grafts does not accumulate the state each graft drops: after five
// chained compiler grafts, the consumed baseline's main PTF — dropped by
// the first graft, since every edit dirties main's closure — is garbage.
func TestChainedGraftsReleaseDroppedState(t *testing.T) {
	wb, ok := workload.ByName("compiler")
	if !ok {
		t.Skip("compiler workload missing")
	}
	src := wb.Source
	res, err := AnalyzeSource("compiler.c", src, nil)
	if err != nil {
		t.Fatal(err)
	}
	baseMain := weak.Make(res.an.MainPTF())
	grafts := 0
	for n := 0; grafts < 5; n++ {
		if n > 200 {
			t.Fatalf("only %d of 200 tweaks dirtied a procedure", grafts)
		}
		edited, ok := workload.TweakNthStatement(src, n)
		if !ok {
			t.Fatal("no statement to tweak")
		}
		bl, err := NewBaseline(res, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err = AnalyzeIncremental(bl, Source{"compiler.c": edited}, "compiler.c", nil)
		if err != nil {
			t.Fatal(err)
		}
		st := res.Incremental()
		if st.Fallback != "" {
			t.Fatalf("graft %d fell back: %s", grafts+1, st.Fallback)
		}
		src = edited
		if st.DirtyProcs > 0 {
			grafts++
		}
	}
	if !collected(baseMain) {
		t.Error("consumed baseline's dropped main PTF is still reachable after 5 grafts")
	}
	runtime.KeepAlive(res)
}
