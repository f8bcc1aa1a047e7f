//go:build go1.24

package pta

import (
	"runtime"
	"runtime/metrics"
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

// liveHeap returns the live heap after forced collections.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// keptResult analyzes src and keeps the result as the daemon keeps a
// miss's before it becomes a baseline: snapshotted with diagnostics.
func keptResult(t *testing.T, name, src string) *Result {
	t.Helper()
	r, err := AnalyzeSource(name, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := r.Snapshot(&SnapshotOptions{Diagnostics: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snap.Encode(); err != nil {
		t.Fatal(err)
	}
	return r
}

// keptBaseline is keptResult wrapped as a warm-edit baseline.
func keptBaseline(t *testing.T, name, src string) *Baseline {
	t.Helper()
	bl, err := NewBaseline(keptResult(t, name, src), nil)
	if err != nil {
		t.Fatal(err)
	}
	return bl
}

// TestKeptResultFootprint pins what a kept result holds: the live heap
// that one compiler baseline, the 13 suite results and the same results
// as baselines add to the process, and that a baseline holds less than
// the result it wraps (it drops the MOD/REF table). A run that keeps its
// evaluation scratch pins the arena chunks its frames point into
// (compiler 4.06 MB, the suite 23.2 MB), and per-PTF lookup caches
// filled by the snapshot build and the checker would keep the suite's
// results at 15.0 MB. Carving each points-to function's records,
// headers and members from chunked slabs kept them at 12.6 MB, with
// compiler's baseline at 1.44 MB and the suite's at 12.0 MB. With
// records, headers and members allocated one by one the results read
// 7.95 MB, and as baselines compiler reads 0.96 MB and the suite
// 7.28 MB (go1.24, linux/amd64).
func TestKeptResultFootprint(t *testing.T) {
	suite := workload.Suite()
	compiler, ok := workload.ByName("compiler")
	if len(suite) != 13 || !ok {
		t.Skipf("suite has %d programs", len(suite))
	}
	// Build the process-wide tables (header tokens, library summaries)
	// before the first reading.
	keptBaseline(t, "warm.c", suite[0].Source)

	base := liveHeap()
	bl := keptBaseline(t, "compiler.c", compiler.Source)
	one := liveHeap() - base
	runtime.KeepAlive(bl)

	base = liveHeap()
	var results []*Result
	for _, b := range suite {
		results = append(results, keptResult(t, b.Name+".c", b.Source))
	}
	untrimmed := liveHeap() - base
	var kept []*Baseline
	for _, r := range results {
		bl, err := NewBaseline(r, nil)
		if err != nil {
			t.Fatal(err)
		}
		kept = append(kept, bl)
	}
	all := liveHeap() - base
	runtime.KeepAlive(kept)

	t.Logf("compiler %.2f MB; suite %.2f MB, untrimmed %.2f MB", float64(one)/1e6, float64(all)/1e6, float64(untrimmed)/1e6)
	if one >= 1.2e6 {
		t.Errorf("one compiler baseline holds %.2f MB, want under 1.2 MB", float64(one)/1e6)
	}
	if all >= 9e6 {
		t.Errorf("the 13 suite baselines hold %.2f MB, want under 9 MB", float64(all)/1e6)
	}
	if untrimmed >= 9.5e6 {
		t.Errorf("the 13 suite results hold %.2f MB, want under 9.5 MB", float64(untrimmed)/1e6)
	}
	if all >= untrimmed {
		t.Errorf("trimming the suite's results into baselines left %.2f of %.2f MB, want less", float64(all)/1e6, float64(untrimmed)/1e6)
	}
}
