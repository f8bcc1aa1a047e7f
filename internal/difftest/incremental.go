package difftest

import (
	"bytes"
	"fmt"

	"wlpa/pta"
)

// StageIncremental is reported by CheckIncremental when an incremental
// re-analysis diverges from the cold analysis of the same edited
// program.
const StageIncremental = "incremental-equivalence"

// snapshotWithDiags analyzes nothing itself; it renders a result's full
// query snapshot including checker diagnostics — the widest bit-identity
// surface a result exposes.
func snapshotWithDiags(r *pta.Result) ([]byte, error) {
	snap, err := r.Snapshot(&pta.SnapshotOptions{Diagnostics: true})
	if err != nil {
		return nil, err
	}
	return snap.Encode()
}

// CheckIncremental is the edit-oracle rung: given a (base, edited)
// program pair it analyzes the edited program cold, re-analyzes it
// incrementally against a baseline built from the base program, and
// requires the two results byte-identical on the full snapshot surface
// (PTF statistics, collapsed solution, diagnostics, ModRef). The graft
// must actually engage — a silent cold fallback on a pair whose globals
// are unchanged is itself a failure, since it would let the incremental
// path rot unexercised.
func CheckIncremental(name, base, edited string, opt Options) error {
	fail := func(stage, format string, args ...any) error {
		return &Failure{Stage: stage, Name: name, Detail: fmt.Sprintf(format, args...), Src: edited}
	}
	popts := &pta.Options{}

	// Cold reference: its own frontend pass, untouched by the graft.
	cold, err := pta.AnalyzeSource(name, edited, popts)
	if err != nil {
		return fail(StageFrontend, "edited program: %v", err)
	}
	coldSnap, err := snapshotWithDiags(cold)
	if err != nil {
		return fail(StageEngine, "cold snapshot: %v", err)
	}

	baseRes, err := pta.AnalyzeSource(name, base, popts)
	if err != nil {
		return &Failure{Stage: StageFrontend, Name: name,
			Detail: fmt.Sprintf("base program: %v", err), Src: base}
	}
	bl, err := pta.NewBaseline(baseRes, popts)
	if err != nil {
		return fail(StageEngine, "baseline: %v", err)
	}
	inc, err := pta.AnalyzeIncremental(bl, pta.Source{name: edited}, name, popts)
	if err != nil {
		return fail(StageEngine, "incremental: %v", err)
	}
	st := inc.Incremental()
	if st == nil || st.Fallback != "" {
		return fail(StageIncremental, "graft did not engage (fallback %q)", fallbackOf(st))
	}
	incSnap, err := snapshotWithDiags(inc)
	if err != nil {
		return fail(StageEngine, "incremental snapshot: %v", err)
	}
	if !bytes.Equal(coldSnap, incSnap) {
		// The collapsed solutions give a far better divergence message
		// than raw snapshot bytes; fall back to the byte offset when the
		// drift is elsewhere (stats, diagnostics, ModRef).
		coldSol := SolutionDump(cold.Analysis())
		incSol := SolutionDump(inc.Analysis())
		if coldSol != incSol {
			return fail(StageIncremental,
				"incremental vs cold (clean=%d dirty=%d restored=%d): solutions differ; first divergence:\n%s",
				st.CleanProcs, st.DirtyProcs, st.RestoredPTFs, firstDiff(incSol, coldSol))
		}
		return fail(StageIncremental,
			"incremental vs cold (clean=%d dirty=%d restored=%d): snapshots differ at byte %d (%d vs %d bytes)",
			st.CleanProcs, st.DirtyProcs, st.RestoredPTFs,
			firstByteDiff(coldSnap, incSnap), len(coldSnap), len(incSnap))
	}
	return nil
}

func fallbackOf(st *pta.IncrStats) string {
	if st == nil {
		return "<no incremental stats>"
	}
	return st.Fallback
}

func firstByteDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
