package bench

import (
	"fmt"

	"wlpa/internal/cast"
	"wlpa/internal/cfg"
	"wlpa/internal/irhash"
	"wlpa/internal/sem"
	"wlpa/internal/workload"
	"wlpa/pta"
)

// Edit is a program's warm-edit measurement: the cost of re-analyzing
// a single-procedure edit against a converged baseline, next to the
// cost of analyzing the edited program cold.
type Edit struct {
	// EditedProc is the one procedure whose IR digest the edit changed;
	// Tweak is the TweakNthStatement index that produced the edit.
	EditedProc string `json:"edited_proc"`
	Tweak      int    `json:"tweak"`
	// ColdNs times pta.AnalyzeProgram of the edited program (flow-graph
	// construction + analysis; frontend excluded). IncrementalNs times
	// pta.AnalyzeIncrementalPrepared of the same program against a
	// fresh baseline — closure diffing, graft, and reconvergence. The
	// warm daemon builds the edited flow graphs and hashes them for
	// cache lookup before the graft is even considered, so neither is
	// an incremental-only cost; their combined floor is reported
	// separately as HashNs. All are the fastest of measureRounds
	// rounds.
	ColdNs        int64 `json:"cold_ns"`
	IncrementalNs int64 `json:"incremental_ns"`
	// HashNs times irhash.Hash of the edited program alone (flow-graph
	// construction + digesting), the floor any closure-diff scheme pays.
	HashNs int64 `json:"hash_ns"`
	// Speedup is ColdNs/IncrementalNs.
	Speedup float64 `json:"speedup"`
	// CleanProcs/DirtyProcs partition the edited program's procedures by
	// closure-hash survival; the PTF counts report what the graft
	// restored versus re-derived (see pta.IncrStats).
	CleanProcs      int `json:"clean_procs"`
	DirtyProcs      int `json:"dirty_procs"`
	RestoredPTFs    int `json:"restored_ptfs"`
	ReconvergedPTFs int `json:"reconverged_ptfs"`
}

// findSingleProcEdit scans tweak indices for one that dirties exactly
// one procedure's IR digest and leaves the globals digest fixed — the
// canonical "edit one statement in one function" event the warm-edit
// path is built for. Among the qualifying tweaks it picks the one whose
// closure-hash cone (the procedures the graft must reconverge) is
// smallest: a leaf edit, the case incrementality exists for. Returns
// the tweak index, the edited source, and the edited procedure's name.
func findSingleProcEdit(name, src string, base *irhash.Program) (int, string, string, error) {
	bestCone := -1
	var bestN int
	var bestSrc, bestProc string
	seen := map[string]bool{}
	for n := 0; ; n++ {
		edited, ok := workload.TweakNthStatement(src, n)
		if !ok || seen[edited] {
			break // exhausted or wrapped around the statement list
		}
		seen[edited] = true
		prog, err := prepare(name, edited)
		if err != nil {
			continue // tweak broke the program (never for suite sources)
		}
		h, err := irhash.Hash(prog)
		if err != nil || h.Globals != base.Globals {
			continue
		}
		var changed []string
		cone := 0
		for i := range h.Procs {
			p := &h.Procs[i]
			bp := base.ProcHash(p.Name)
			if bp == nil || bp.IR != p.IR {
				changed = append(changed, p.Name)
			}
			if bp == nil || bp.Closure != p.Closure {
				cone++
			}
		}
		if len(changed) != 1 {
			continue
		}
		if bestCone < 0 || cone < bestCone {
			bestCone, bestN, bestSrc, bestProc = cone, n, edited, changed[0]
		}
	}
	if bestCone < 0 {
		return 0, "", "", fmt.Errorf("%s: no single-procedure tweak found", name)
	}
	return bestN, bestSrc, bestProc, nil
}

// measureEdit measures the warm-edit path of one program: analyze the
// base cold, apply a single-procedure statement tweak, and compare
// re-analyzing the edit incrementally against analyzing it cold. Every
// round starts from a fresh program (a baseline is consumed by the
// graft).
func measureEdit(b workload.Benchmark) (Edit, error) {
	baseProg, err := prepare(b.Name, b.Source)
	if err != nil {
		return Edit{}, err
	}
	baseHash, err := irhash.Hash(baseProg)
	if err != nil {
		return Edit{}, err
	}
	tweak, edited, proc, err := findSingleProcEdit(b.Name, b.Source, baseHash)
	if err != nil {
		return Edit{}, err
	}
	e := Edit{EditedProc: proc, Tweak: tweak}

	// Cold side: the edited program from scratch. Flow graphs are built
	// inside the timed region (AnalyzeProgram), matching the incremental
	// side's scope.
	if e.ColdNs, _, err = bestOf(fresh(b.Name, edited), analyze); err != nil {
		return Edit{}, fmt.Errorf("%s: cold: %w", b.Name, err)
	}

	// Hash floor: what identifying the edit costs by itself.
	if e.HashNs, _, err = bestOf(fresh(b.Name, edited), func(prog *sem.Program) error {
		_, err := irhash.Hash(prog)
		return err
	}); err != nil {
		return Edit{}, err
	}

	// Incremental side: each round converges a fresh baseline (untimed —
	// a warm daemon holds it already) and times the graft + reconverge.
	// The edited flow graphs and hash record are precomputed: the
	// daemon builds and hashes every request for cache lookup before
	// the graft is even considered (their cost is HashNs).
	hashed, err := prepare(b.Name, edited)
	if err != nil {
		return Edit{}, err
	}
	editedHash, err := irhash.Hash(hashed)
	if err != nil {
		return Edit{}, err
	}
	type graft struct {
		bl    *pta.Baseline
		prog  *sem.Program
		procs map[*cast.FuncDecl]*cfg.Proc
	}
	var st *pta.IncrStats
	e.IncrementalNs, _, err = bestOf(func() (graft, error) {
		base, err := prepare(b.Name, b.Source)
		if err != nil {
			return graft{}, err
		}
		res, err := pta.AnalyzeProgram(base, nil)
		if err != nil {
			return graft{}, err
		}
		bl, err := pta.NewBaseline(res, nil)
		if err != nil {
			return graft{}, err
		}
		prog, err := prepare(b.Name, edited)
		if err != nil {
			return graft{}, err
		}
		procs, err := cfg.BuildAll(prog.Funcs)
		return graft{bl, prog, procs}, err
	}, func(g graft) error {
		r, err := pta.AnalyzeIncrementalPrepared(g.bl, g.prog, g.procs, editedHash, nil)
		if err != nil {
			return fmt.Errorf("%s: incremental: %w", b.Name, err)
		}
		if st = r.Incremental(); st == nil || st.Fallback != "" {
			return fmt.Errorf("%s: graft refused: %+v", b.Name, st)
		}
		return nil
	})
	if err != nil {
		return Edit{}, err
	}
	e.CleanProcs = st.CleanProcs
	e.DirtyProcs = st.DirtyProcs
	e.RestoredPTFs = st.RestoredPTFs
	e.ReconvergedPTFs = st.ReconvergedPTFs
	if e.IncrementalNs > 0 {
		e.Speedup = float64(e.ColdNs) / float64(e.IncrementalNs)
	}
	return e, nil
}
