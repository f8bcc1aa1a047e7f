package pta

import (
	"fmt"
	"sort"
	"time"

	"wlpa/internal/analysis"
	"wlpa/internal/cast"
	"wlpa/internal/cfg"
	"wlpa/internal/cparse"
	"wlpa/internal/cpp"
	"wlpa/internal/ctype"
	"wlpa/internal/libsum"
	"wlpa/internal/memmod"
	"wlpa/internal/sem"
)

// Policy selects the interprocedural summarization strategy.
type Policy int

const (
	// PartialTransferFunctions is the paper's algorithm (default).
	PartialTransferFunctions Policy = iota
	// ReanalyzeEveryContext reanalyzes callees per context (Emami-style).
	ReanalyzeEveryContext
	// OneSummary merges all contexts into a single summary.
	OneSummary
)

// Options configure an analysis.
type Options struct {
	// Policy is the PTF reuse policy.
	Policy Policy
	// MaxPTFs caps PTFs per procedure (0 = unlimited).
	MaxPTFs int
	// CombineOffsets enables the paper's §7 optimization: PTFs whose
	// input domains differ only in offsets/strides are combined, with
	// a small loss of context sensitivity.
	CombineOffsets bool
	// Predefined preprocessor macros (name -> replacement text).
	Predefined map[string]string
	// Workers is ignored: every analysis is one sequential walk.
	//
	// Deprecated: the parallel scheduler it sized was removed.
	Workers int
	// ForceFullPasses disables the dependency-tracked worklist engine
	// and re-evaluates every node each pass. Slower; kept as a
	// cross-check and fallback (results are identical).
	ForceFullPasses bool
	// Timeout aborts the analysis after a wall-clock budget (0 = none).
	// Used by the serving path (cmd/wlpad) to bound request latency;
	// an exceeded budget returns an error, never a partial result.
	Timeout time.Duration
	// Baseline, when set, makes Analyze attempt incremental
	// re-analysis against the converged result it wraps (see
	// AnalyzeIncremental). The baseline is consumed on success; when
	// the graft is refused the run silently falls back to a cold
	// analysis (Result.Incremental reports which happened).
	Baseline *Baseline
}

// Source is an in-memory set of C files.
type Source = cpp.Source

// Result holds the outcome of analyzing a program.
type Result struct {
	prog *sem.Program
	an   *analysis.Analysis

	// aopts are the analysis options used, kept so Check can re-run
	// the analysis with the same configuration.
	aopts analysis.Options

	parseTime time.Duration

	// incr describes the incremental graft that produced this result
	// (nil for cold runs; see AnalyzeIncremental).
	incr *IncrStats
}

// Incremental reports how this result was produced: nil for a cold run,
// otherwise the restored-vs-reconverged accounting of the incremental
// graft (with Fallback set when the graft was refused and the run was
// cold after all).
func (r *Result) Incremental() *IncrStats { return r.incr }

// AnalyzeSource analyzes a single self-contained C source string.
// Standard headers (<stdlib.h> etc.) resolve to built-in versions whose
// functions are modeled by hand-written summaries, as in the paper.
func AnalyzeSource(name, src string, opts *Options) (*Result, error) {
	return Analyze(Source{name: src}, name, opts)
}

// Analyze preprocesses and analyzes the translation unit rooted at entry.
func Analyze(files Source, entry string, opts *Options) (*Result, error) {
	if opts == nil {
		opts = &Options{}
	}
	if opts.Baseline != nil {
		return AnalyzeIncremental(opts.Baseline, files, entry, opts)
	}
	t0 := time.Now()
	prog, err := Frontend(files, entry, opts.Predefined)
	if err != nil {
		return nil, err
	}
	parseTime := time.Since(t0)
	r, err := AnalyzeProgram(prog, opts)
	if err != nil {
		return nil, err
	}
	r.parseTime = parseTime
	return r, nil
}

// Frontend preprocesses, parses and typechecks the translation unit
// rooted at entry without running the analysis. The daemon (cmd/wlpad)
// uses it to hash the program for cache lookup before deciding whether
// the worklist engine needs to run at all; AnalyzeProgram accepts its
// result.
func Frontend(files Source, entry string, predefined map[string]string) (*sem.Program, error) {
	f, err := cparse.ParseFile(files, entry, predefined)
	if err != nil {
		return nil, err
	}
	return sem.Check(f)
}

// AnalyzeProgram runs the pointer analysis over an already-typechecked
// program (see Frontend).
func AnalyzeProgram(prog *sem.Program, opts *Options) (*Result, error) {
	if opts == nil {
		opts = &Options{}
	}
	aopts := analysis.Options{
		Lib:             libsum.Summaries(),
		LibEffects:      libsum.Effects(),
		CollectSolution: true,
		MaxPTFs:         opts.MaxPTFs,
		CombineOffsets:  opts.CombineOffsets,
		ForceFullPasses: opts.ForceFullPasses,
		Timeout:         opts.Timeout,
	}
	switch opts.Policy {
	case ReanalyzeEveryContext:
		aopts.Reuse = analysis.NeverReuse
	case OneSummary:
		aopts.Reuse = analysis.SingleSummary
	}
	an, err := analysis.New(prog, aopts)
	if err != nil {
		return nil, err
	}
	if err := an.Run(); err != nil {
		return nil, err
	}
	return &Result{prog: prog, an: an, aopts: aopts}, nil
}

// Stats returns the analysis statistics (times, PTF counts).
func (r *Result) Stats() analysis.Stats { return r.an.Stats() }

// ParseTime returns the frontend (preprocess+parse+typecheck) time,
// excluded from analysis time as in the paper's Table 2.
func (r *Result) ParseTime() time.Duration { return r.parseTime }

// Program exposes the typed program (for tooling built on the library).
func (r *Result) Program() *sem.Program { return r.prog }

// Analysis exposes the underlying analysis instance.
func (r *Result) Analysis() *analysis.Analysis { return r.an }

// PointsTo returns the names of the memory blocks the named global
// pointer may point to at program exit. Heap blocks are named
// "heap@file:line:col"; string literals "strN".
func (r *Result) PointsTo(global string) []string {
	sym := r.findGlobal(global)
	if sym == nil {
		return nil
	}
	b := r.an.GlobalBlock(sym)
	ptf := r.an.MainPTF()
	vals, ok := ptf.Pts.LookupOut(memmod.Loc(b, 0, 0), ptf.Proc.Exit, nil)
	if !ok {
		return nil
	}
	names := make([]string, 0, vals.Len())
	for _, l := range vals.Locs() {
		names = append(names, l.Base.Name)
	}
	sort.Strings(names)
	return names
}

// PointsToField is PointsTo for a specific byte offset within a global
// (e.g. a struct field).
func (r *Result) PointsToField(global string, offset int64) []string {
	sym := r.findGlobal(global)
	if sym == nil {
		return nil
	}
	b := r.an.GlobalBlock(sym)
	vals := r.an.Solution().PointsTo(memmod.Loc(b, offset, 0))
	names := make([]string, 0, vals.Len())
	for _, l := range vals.Locs() {
		names = append(names, l.Base.Name)
	}
	sort.Strings(names)
	return names
}

// PointsToAt returns the may-point-to targets of expr as observed in
// procedure proc at the given source line: the state after the last
// pointer operation on or before that line. expr is a variable name
// with optional leading stars ("p", "*p", "**pp"); the variable may be
// a local, a formal, or a global, and each star performs one further
// dereference of the queried state. Targets are unioned over every
// analyzed calling context of the procedure, with extended parameters
// concretized to the storage they were bound to. Returns nil if the
// procedure, the variable, or the line is unknown.
func (r *Result) PointsToAt(proc string, line int, expr string) []string {
	cproc := r.an.Proc(proc)
	if cproc == nil {
		return nil
	}
	stars := 0
	for stars < len(expr) && expr[stars] == '*' {
		stars++
	}
	name := expr[stars:]
	sym := procSymbol(cproc, name)
	if sym == nil {
		sym = r.findGlobal(name)
	}
	if sym == nil {
		return nil
	}
	// The query point: the last flow node at or before the line. Nodes
	// are in reverse postorder, so among same-position candidates the
	// later one wins.
	nd := cproc.Nodes[queryNodeIndex(cproc, line)]
	return r.pointsToAtNode(proc, sym, stars, nd)
}

// queryNodeIndex resolves a source line to the index (in proc.Nodes) of
// the last flow node at or before that line, falling back to the entry
// node. Snapshot.PointsToAt replicates this loop over serialized
// positions, so the two resolution rules must stay in lockstep.
func queryNodeIndex(cproc *cfg.Proc, line int) int {
	nd := -1
	for i, n := range cproc.Nodes {
		if !n.Pos.IsValid() || n.Pos.Line > line {
			continue
		}
		if nd < 0 || n.Pos.Line > cproc.Nodes[nd].Pos.Line ||
			(n.Pos.Line == cproc.Nodes[nd].Pos.Line && n.Pos.Col >= cproc.Nodes[nd].Pos.Col) {
			nd = i
		}
	}
	if nd < 0 {
		return 0 // Nodes[0] is the entry node
	}
	return nd
}

// pointsToAtNode computes the PointsToAt answer for a resolved symbol,
// star depth, and flow node: the union over every analyzed context,
// concretized, deduplicated, and sorted. Shared between the live query
// path and the snapshot builder.
func (r *Result) pointsToAtNode(proc string, sym *cast.Symbol, stars int, nd *cfg.Node) []string {
	var union memmod.ValueSet
	for _, p := range r.an.PTFs(proc) {
		vals := r.an.ContentsAfter(p, r.an.VarLoc(p, sym, 0, 0), nd)
		for s := 0; s < stars; s++ {
			var next memmod.ValueSet
			for _, l := range vals.Locs() {
				next.AddAll(r.an.ContentsAfter(p, l, nd))
			}
			vals = next
		}
		union.AddAll(vals)
	}
	union = r.an.Concretize(union)
	seen := map[string]bool{}
	var names []string
	for _, l := range union.Locs() {
		n := l.Resolve().Base.Name
		if !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// procSymbol finds a local or formal of proc by name.
func procSymbol(proc *cfg.Proc, name string) *cast.Symbol {
	for _, s := range proc.Locals {
		if s.Name == name {
			return s
		}
	}
	for _, p := range proc.Fn.Params {
		if p.Sym != nil && p.Sym.Name == name {
			return p.Sym
		}
	}
	return nil
}

// MayAlias reports whether two global pointers may point into the same
// memory block.
func (r *Result) MayAlias(p, q string) bool {
	a := r.PointsTo(p)
	b := r.PointsTo(q)
	set := make(map[string]bool, len(a))
	for _, n := range a {
		set[n] = true
	}
	for _, n := range b {
		if set[n] {
			return true
		}
	}
	return false
}

// CallEdge is one resolved call-graph edge.
type CallEdge struct {
	Caller string
	Callee string
	Pos    string // source position of the call site
}

// CallGraph returns the resolved call graph, including calls through
// function pointers, sorted by caller then callee.
func (r *Result) CallGraph() []CallEdge {
	seen := map[CallEdge]bool{}
	var edges []CallEdge
	add := func(e CallEdge) {
		if !seen[e] {
			seen[e] = true
			edges = append(edges, e)
		}
	}
	for _, fd := range r.prog.Funcs {
		proc := r.an.Proc(fd.Name)
		if proc == nil {
			continue
		}
		for _, nd := range proc.Nodes {
			if nd.Kind != cfg.CallNode {
				continue
			}
			if nd.Direct != nil {
				add(CallEdge{Caller: fd.Name, Callee: nd.Direct.Name, Pos: nd.Pos.String()})
				continue
			}
			// Indirect: consult the collapsed solution for the
			// function-pointer expression's possible targets.
			for _, callee := range r.indirectTargets(nd) {
				add(CallEdge{Caller: fd.Name, Callee: callee, Pos: nd.Pos.String()})
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Caller != edges[j].Caller {
			return edges[i].Caller < edges[j].Caller
		}
		if edges[i].Callee != edges[j].Callee {
			return edges[i].Callee < edges[j].Callee
		}
		return edges[i].Pos < edges[j].Pos
	})
	return edges
}

// indirectTargets resolves an indirect call's targets from the collapsed
// solution: any function block reachable from the value expression's
// concrete sources.
func (r *Result) indirectTargets(nd *cfg.Node) []string {
	sol := r.an.Solution()
	if sol == nil {
		return nil
	}
	// Conservatively: all function blocks stored anywhere reachable
	// from the expression's root variables.
	var out []string
	seen := map[string]bool{}
	var visitExpr func(e *cfg.Expr, depth int) memmod.ValueSet
	visitExpr = func(e *cfg.Expr, depth int) memmod.ValueSet {
		var vals memmod.ValueSet
		if e == nil || depth > 8 {
			return vals
		}
		for _, t := range e.Terms {
			switch t.Kind {
			case cfg.TermFunc:
				if !seen[t.Sym.Name] {
					seen[t.Sym.Name] = true
					out = append(out, t.Sym.Name)
				}
			case cfg.TermVar:
				if t.Sym.Global {
					vals.Add(memmod.Loc(r.an.GlobalBlock(t.Sym), t.Off, t.Stride))
				} else {
					// Local: consult solution via block name match.
					vals.AddAll(r.localLoc(t.Sym, t.Off, t.Stride))
				}
			case cfg.TermDeref:
				base := visitExpr(t.Base, depth+1)
				for _, l := range base.Locs() {
					vals.AddAll(sol.PointsTo(l))
				}
			}
		}
		for _, l := range vals.Locs() {
			if l.Base.Kind == memmod.FuncBlock && !seen[l.Base.Name] {
				seen[l.Base.Name] = true
				out = append(out, l.Base.Name)
			}
		}
		return vals
	}
	visitExpr(nd.Fun, 0)
	sort.Strings(out)
	return out
}

// localLoc finds solution locations for a local symbol by scanning the
// collapsed solution for blocks created from that symbol.
func (r *Result) localLoc(sym *cast.Symbol, off, stride int64) memmod.ValueSet {
	var vals memmod.ValueSet
	sol := r.an.Solution()
	if sol == nil {
		return vals
	}
	for _, loc := range sol.Locations() {
		if loc.Base.Sym == sym {
			vals.AddAll(sol.PointsTo(memmod.Loc(loc.Base, off, stride)))
		}
	}
	return vals
}

// Procedures returns the names of the analyzed (reachable) procedures.
func (r *Result) Procedures() []string {
	var names []string
	for name, n := range r.an.Stats().PTFsPerProc {
		if n > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// NumPTFs returns the number of PTFs created for the named procedure.
func (r *Result) NumPTFs(proc string) int {
	return len(r.an.PTFs(proc))
}

// Globals returns the names of the program's global variables.
func (r *Result) Globals() []string {
	var names []string
	for _, g := range r.prog.Globals {
		names = append(names, g.Name)
	}
	sort.Strings(names)
	return names
}

func (r *Result) findGlobal(name string) *cast.Symbol {
	for _, g := range r.prog.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}

// Describe renders a human-readable dump of the points-to sets of all
// global pointers (used by cmd/wlpa).
func (r *Result) Describe() string {
	s := ""
	for _, g := range r.prog.Globals {
		if !pointerish(g.Type) {
			continue
		}
		targets := r.PointsTo(g.Name)
		if len(targets) == 0 {
			continue
		}
		s += fmt.Sprintf("%s -> %v\n", g.Name, targets)
	}
	return s
}

func pointerish(t *ctype.Type) bool {
	switch t.Kind {
	case ctype.Pointer:
		return true
	case ctype.Array:
		return pointerish(t.Elem)
	case ctype.Struct:
		for _, f := range t.Fields {
			if pointerish(f.Type) {
				return true
			}
		}
	}
	return t.IsPointerLike()
}
