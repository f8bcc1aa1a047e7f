package pta

// Incremental re-analysis entry points. A Baseline wraps a converged
// Result together with the IR hash record of its program; analyzing an
// edited program against it diffs per-procedure closure hashes, keeps
// every PTF of the unchanged procedures, and reconverges only what the
// edit dirtied. The result is bit-identical to a cold analysis of the
// edited program (pinned by internal/difftest.CheckIncremental).
//
// PTF state is a pointer web into the run's intern table — LocIDs and
// block identities die with the run and nothing serializable exists —
// so incrementality works by *consuming* the baseline: the underlying
// analysis is mutated in place into the new run. After a successful
// incremental analysis the baseline (and the Result it wraps) must not
// be queried again; wrap the returned Result in a new Baseline to
// continue the chain.

import (
	"fmt"
	"sort"
	"time"

	"wlpa/internal/cast"
	"wlpa/internal/cfg"
	"wlpa/internal/irhash"
	"wlpa/internal/sem"
)

// IncrStats reports what an incremental analysis restored and what it
// had to recompute.
type IncrStats struct {
	// CleanProcs / DirtyProcs partition the edited program's defined
	// functions by closure-hash survival against the baseline.
	CleanProcs int `json:"clean_procs"`
	DirtyProcs int `json:"dirty_procs"`
	// Dirty names the dirty procedures, sorted: the edited procedures
	// and their transitive callers.
	Dirty []string `json:"dirty,omitempty"`
	// RestoredPTFs counts converged baseline PTF instances carried over
	// unchanged; DroppedPTFs counts baseline instances discarded.
	RestoredPTFs int `json:"restored_ptfs"`
	DroppedPTFs  int `json:"dropped_ptfs"`
	// ReconvergedPTFs counts instances created by the re-analysis (the
	// dirtied procedures' contexts).
	ReconvergedPTFs int `json:"reconverged_ptfs"`
	// Fallback is the reason the graft was refused and a cold analysis
	// ran instead ("" when the run really was incremental).
	Fallback string `json:"fallback,omitempty"`
}

// Baseline is a converged analysis result prepared for incremental
// re-analysis. It is single-use: a successful incremental run consumes
// it.
type Baseline struct {
	res      *Result
	hash     *irhash.Program
	opts     Options
	consumed bool
}

// NewBaseline wraps a converged result for incremental re-analysis.
// opts must be the options the result was analyzed with (nil means the
// defaults). The result is trimmed to what it answers with: its
// points-to lookup caches and MOD/REF table, which the next graft
// rebuilds anyway, are dropped. r still answers every query, rebuilding
// what the query reads, but must not be read concurrently with the
// call.
func NewBaseline(r *Result, opts *Options) (*Baseline, error) {
	if r == nil {
		return nil, fmt.Errorf("pta: nil result")
	}
	h, err := irhash.Hash(r.prog)
	if err != nil {
		return nil, err
	}
	return BaselineFromHash(r, h, opts), nil
}

// BaselineFromHash is NewBaseline for callers that already hold the
// program's hash record (the daemon hashes every request for cache
// lookup and need not hash again). It trims r the same way.
func BaselineFromHash(r *Result, h *irhash.Program, opts *Options) *Baseline {
	var o Options
	if opts != nil {
		o = *opts
	}
	o.Baseline = nil
	r.an.DropCaches()
	return &Baseline{res: r, hash: h, opts: o}
}

// Consumed reports whether an incremental run has consumed the
// baseline.
func (b *Baseline) Consumed() bool { return b.consumed }

// AnalyzeIncremental analyzes the translation unit rooted at entry
// against a baseline: procedures whose closure IR hashes are unchanged
// keep their converged PTFs, and only the edit's dirty cone (the edited
// procedures and their transitive callers) is reconverged. The result —
// solution, diagnostics, ModRef summaries, snapshot bytes — is
// bit-identical to a cold Analyze of the same input.
//
// When the graft is not applicable (options differ, globals changed,
// the baseline was capped, ...) the analysis silently runs cold and
// Result.Incremental().Fallback names the reason. On success the
// baseline is consumed.
func AnalyzeIncremental(b *Baseline, files Source, entry string, opts *Options) (*Result, error) {
	if opts == nil {
		opts = &Options{}
	}
	t0 := time.Now()
	prog, err := Frontend(files, entry, opts.Predefined)
	if err != nil {
		return nil, err
	}
	parseTime := time.Since(t0)
	r, err := AnalyzeIncrementalPrepared(b, prog, nil, nil, opts)
	if err != nil {
		return nil, err
	}
	r.parseTime = parseTime
	return r, nil
}

// AnalyzeIncrementalPrepared is AnalyzeIncremental over an already
// typechecked program (see Frontend), for callers that may also have
// built the edited program's flow graphs and its hash record — the
// daemon builds both once to hash every request for cache lookup
// (irhash.HashProcs) and need not build them again to analyze. procs
// and eh may be nil, in which case they are computed here, once, for
// the graft and its cold fallback alike.
//
// The result owns the flow graphs it analyzed: procs' for the
// procedures it reconverged (all of them on a fallback) and the
// baseline's for the ones it kept, rewired onto prog's symbols. The
// sharing rule of AnalyzeProgramPrepared applies.
func AnalyzeIncrementalPrepared(b *Baseline, prog *sem.Program, procs map[*cast.FuncDecl]*cfg.Proc, eh *irhash.Program, opts *Options) (*Result, error) {
	if opts == nil {
		opts = &Options{}
	}
	if procs == nil {
		var err error
		if procs, err = cfg.BuildAll(prog.Funcs); err != nil {
			return nil, err
		}
	}
	cold := func(reason string) (*Result, error) {
		r, err := AnalyzeProgramPrepared(prog, procs, opts)
		if err != nil {
			return nil, err
		}
		r.incr = &IncrStats{Fallback: reason}
		return r, nil
	}
	switch {
	case b == nil:
		return cold("no baseline")
	case b.consumed:
		return cold("baseline already consumed")
	case !b.opts.compatible(opts):
		return cold("options differ from baseline")
	case opts.Policy != PartialTransferFunctions:
		return cold("non-default reuse policy")
	case opts.ForceFullPasses:
		return cold("full-pass engine")
	case opts.MaxPTFs != 0:
		return cold("PTF cap in effect")
	case prog.Main == nil:
		return cold("edited program has no main")
	}
	if eh == nil {
		eh = irhash.HashProcs(prog, procs)
	}
	if eh.Globals != b.hash.Globals {
		// Globals seed main's input domain and every procedure can
		// reference them, so a changed globals digest dirties
		// everything; there is nothing to restore.
		return cold("globals changed")
	}
	clean := make(map[string]bool)
	for i := range eh.Procs {
		p := &eh.Procs[i]
		if bp := b.hash.ProcHash(p.Name); bp != nil && bp.Closure == p.Closure {
			clean[p.Name] = true
		}
	}
	st, err := b.res.an.PrepareIncremental(prog, procs, clean)
	if err != nil {
		// The graft refuses before mutating anything; the baseline
		// stays valid and the edited flow graphs are untouched.
		return cold(err.Error())
	}
	b.consumed = true
	if err := b.res.an.Run(); err != nil {
		return nil, err
	}
	an := b.res.an
	r := &Result{prog: an.Program(), an: an}
	// Restoration is demand-driven (a surviving PTF is adopted only
	// when a call site of the edited program matches its alias
	// pattern), so the restored count is only known after Run; cache
	// survivors nobody demanded count as dropped.
	restored := an.RestoredPTFs()
	var dirty []string
	for _, fd := range prog.Funcs {
		if !clean[fd.Name] {
			dirty = append(dirty, fd.Name)
		}
	}
	sort.Strings(dirty)
	r.incr = &IncrStats{
		CleanProcs:      st.CleanProcs,
		DirtyProcs:      st.DirtyProcs,
		Dirty:           dirty,
		RestoredPTFs:    restored,
		DroppedPTFs:     st.KeptPTFs + st.DroppedPTFs - restored,
		ReconvergedPTFs: an.Stats().PTFs - restored,
	}
	return r, nil
}

// compatible reports whether two option sets produce the same analysis
// configuration (ignoring knobs that cannot change results: timeouts
// and the baseline itself).
func (o Options) compatible(n *Options) bool {
	return o.Policy == n.Policy &&
		o.MaxPTFs == n.MaxPTFs &&
		o.CombineOffsets == n.CombineOffsets &&
		o.ForceFullPasses == n.ForceFullPasses
}
