package analysis

import (
	"sort"

	"wlpa/internal/cast"
	"wlpa/internal/cfg"
	"wlpa/internal/memmod"
)

// This file is the read-only query surface of a converged analysis, used
// by checkers (internal/check) and per-node queries (pta.PointsToAt).
// Unlike the evaluation paths, these functions never extend a PTF's input
// domain: initial values that were never demanded during the analysis
// resolve to the empty set instead of materializing new extended
// parameters.

// freeKey identifies a deallocation site within one calling context.
type freeKey struct {
	ptf *PTF
	nd  *cfg.Node
}

// FreeSite is one recorded deallocation: at Node (within the context
// summarized by PTF), the storage named by Vals was freed.
type FreeSite struct {
	PTF  *PTF
	Node *cfg.Node
	Vals memmod.ValueSet
}

// recordFree merges a freed value set into the per-(PTF, node) record.
func (a *Analysis) recordFree(f *frame, nd *cfg.Node, v memmod.ValueSet) {
	if v.IsEmpty() {
		return
	}
	k := freeKey{f.ptf, nd}
	if a.frees == nil {
		a.frees = make(map[freeKey]*memmod.ValueSet)
	}
	acc, ok := a.frees[k]
	if !ok {
		nv := v.Resolved().Clone()
		a.frees[k] = &nv
		return
	}
	acc.AddAll(v)
}

// FreeSites returns every recorded deallocation, sorted by procedure
// name, node ID, and PTF creation order (deterministic).
func (a *Analysis) FreeSites() []FreeSite {
	out := make([]FreeSite, 0, len(a.frees))
	for k, v := range a.frees {
		out = append(out, FreeSite{PTF: k.ptf, Node: k.nd, Vals: v.Resolved()})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].PTF.Proc.Name != out[j].PTF.Proc.Name {
			return out[i].PTF.Proc.Name < out[j].PTF.Proc.Name
		}
		if out[i].Node.ID != out[j].Node.ID {
			return out[i].Node.ID < out[j].Node.ID
		}
		return ptfIndex(out[i].PTF) < ptfIndex(out[j].PTF)
	})
	return out
}

func ptfIndex(p *PTF) int {
	// PTFs carry no explicit index; use the parameter count tiebreak
	// (stable enough for deterministic output of same-proc sites).
	return len(p.params)
}

// NullLoc returns the null pseudo-location and whether null tracking is
// enabled for this analysis.
func (a *Analysis) NullLoc() (memmod.LocSet, bool) {
	if a.nullBlock == nil {
		return memmod.LocSet{}, false
	}
	return memmod.Loc(a.nullBlock, 0, 0), true
}

// AllPTFs returns every PTF of every analyzed procedure, in program
// declaration order (then PTF creation order).
func (a *Analysis) AllPTFs() []*PTF {
	var out []*PTF
	for _, fd := range a.prog.Funcs {
		proc, ok := a.procs[fd]
		if !ok {
			continue
		}
		out = append(out, a.ptfs[proc]...)
	}
	return out
}

// HeapBlockAt returns the heap block allocated at the given call node, or
// nil if the node is not a (reached) allocation site.
func (a *Analysis) HeapBlockAt(nd *cfg.Node) *memmod.Block {
	return a.heapBlocks[nd.Pos.String()]
}

// Concretize resolves extended-parameter values to the union of every
// concrete binding they received in any context (requires
// CollectSolution).
func (a *Analysis) Concretize(vals memmod.ValueSet) memmod.ValueSet {
	if a.paramConcrete == nil {
		return vals.Resolved()
	}
	return a.concretize(nil, vals, 0)
}

// ExitReached reports whether the summary has been computed through the
// procedure exit (false only for PTFs abandoned mid-recursion).
func (p *PTF) ExitReached() bool { return p.exitReached }

// Home returns the calling context the PTF was created at: the caller's
// PTF and the call node (both nil for main).
func (p *PTF) Home() (*PTF, *cfg.Node) { return p.homePTF, p.homeNode }

// RetvalLoc returns the location of the procedure's return-value block.
func (p *PTF) RetvalLoc() memmod.LocSet { return memmod.Loc(p.retval, 0, 0) }

// VarLoc resolves a variable symbol to its location in the PTF's name
// space without extending the input domain: the retval block, a local
// block, the real global block (in main), or the PTF's extended parameter
// for the global (unreferenced globals fall back to the real block, whose
// records simply miss in this PTF).
func (a *Analysis) VarLoc(p *PTF, sym *cast.Symbol, off, stride int64) memmod.LocSet {
	if sym == p.Proc.Retval || sym.Name == "<retval>" {
		return memmod.Loc(p.retval, off, stride)
	}
	if sym.Global {
		if p != a.mainPTF {
			if gp, ok := p.globalParams.get(sym); ok {
				return memmod.Loc(gp.Representative(), off, stride)
			}
		}
		return memmod.Loc(a.globalBlock(sym), off, stride)
	}
	return memmod.Loc(p.localBlock(sym), off, stride)
}

// CallEdgesOf returns the resolved call edges applied inside one
// context, deterministically sorted by node then callee. Dataflow
// clients use it to find the callee summaries folded at a call node.
func (a *Analysis) CallEdgesOf(p *PTF) []CallEdge { return sortedEdges(p) }

// BindingsAt returns the parameter bindings of one call edge: for every
// extended parameter of the callee, the resolved caller-name-space
// values it was bound to at this site. They are derived once per edge,
// by the MOD/REF table build (see ModRef), so BindingsAt also requires
// a converged analysis. The returned map and its sets are shared and
// read-only; callers must not modify either. A triple that is not a
// call edge of the converged graph has no bindings (nil).
func (a *Analysis) BindingsAt(caller *PTF, nd *cfg.Node, callee *PTF) map[*memmod.Block]memmod.ValueSet {
	return a.ModRef().binds[CallEdge{Caller: caller, Node: nd, Callee: callee}]
}

// SingletonPointee returns the one location an expression must point at
// in context p at node nd: the points-to set holds exactly one non-null
// location at a known offset (stride 0). Checkers use it to decide
// between strong and weak updates; callers that additionally need
// "exactly one runtime object" must also test loc.Base.Unique().
func (a *Analysis) SingletonPointee(p *PTF, e *cfg.Expr, nd *cfg.Node) (memmod.LocSet, bool) {
	var single memmod.LocSet
	n := 0
	for _, l := range a.EvalAt(p, e, nd).Locs() {
		l = l.Resolve()
		if l.Base.Kind == memmod.NullBlock {
			continue
		}
		single = l
		n++
		if n > 1 {
			return memmod.LocSet{}, false
		}
	}
	if n != 1 || single.Stride != 0 {
		return memmod.LocSet{}, false
	}
	return single, true
}

// MustAlias reports whether two expressions definitely denote the same
// single runtime location at nd: both resolve to the same singleton
// precise location of a unique block.
func (a *Analysis) MustAlias(p *PTF, e1, e2 *cfg.Expr, nd *cfg.Node) bool {
	l1, ok1 := a.SingletonPointee(p, e1, nd)
	l2, ok2 := a.SingletonPointee(p, e2, nd)
	return ok1 && ok2 && l1.Resolve() == l2.Resolve() && l1.Precise()
}

// EvalAt evaluates an IR expression to the value set it denotes in PTF
// p's name space at node nd, read-only (converged state; see file
// comment).
func (a *Analysis) EvalAt(p *PTF, e *cfg.Expr, nd *cfg.Node) memmod.ValueSet {
	var out memmod.ValueSet
	if e == nil {
		return out
	}
	for _, t := range e.Terms {
		out.AddAll(a.TermValuesAt(p, t, nd))
	}
	return out
}

// TermValuesAt evaluates a single IR term read-only (the per-term variant
// of EvalAt, used by checkers that must attribute values to an individual
// dereference).
func (a *Analysis) TermValuesAt(p *PTF, t cfg.Term, nd *cfg.Node) memmod.ValueSet {
	var base memmod.ValueSet
	switch t.Kind {
	case cfg.TermVar:
		base.Add(a.VarLoc(p, t.Sym, 0, 0))
	case cfg.TermFunc:
		base.Add(memmod.Loc(a.funcBlock(t.Sym), 0, 0))
	case cfg.TermStr:
		base.Add(memmod.Loc(a.strBlock(t.StrID, t.StrVal), 0, 0))
	case cfg.TermNull:
		if a.nullBlock != nil {
			base.Add(memmod.Loc(a.nullBlock, 0, 0))
		}
	case cfg.TermDeref:
		ptrs := a.EvalAt(p, t.Base, nd)
		for _, pl := range ptrs.Locs() {
			base.AddAll(a.ContentsAt(p, pl, nd))
		}
	}
	if t.Off != 0 {
		base = base.Shift(t.Off)
	}
	if t.Stride != 0 {
		base = base.WithStride(t.Stride)
	}
	return base
}

// ContentsAt returns the pointer values stored at location v as seen
// flowing INTO node nd (read-only mirror of the analysis' EvalDeref,
// paper Figure 10): all overlapping pointer locations contribute, bounded
// by the nearest dominating strong update when v is precise. Initial
// values resolve through the entry records seeded during the analysis;
// locations never demanded stay empty.
func (a *Analysis) ContentsAt(p *PTF, v memmod.LocSet, nd *cfg.Node) memmod.ValueSet {
	return a.contentsAt(p, v, nd, false)
}

// ContentsAfter is ContentsAt for the state flowing OUT of nd (a record
// at the node itself is visible).
func (a *Analysis) ContentsAfter(p *PTF, v memmod.LocSet, nd *cfg.Node) memmod.ValueSet {
	return a.contentsAt(p, v, nd, true)
}

func (a *Analysis) contentsAt(p *PTF, v memmod.LocSet, nd *cfg.Node, includeAt bool) memmod.ValueSet {
	v = v.Resolve()
	if v.Base.Kind == memmod.NullBlock {
		return memmod.ValueSet{}
	}
	var barrier *cfg.Node
	if v.Precise() {
		barrier = p.Pts.FindStrongUpdate(v, nd)
	}
	var result memmod.ValueSet
	seen := map[memmod.LocSet]bool{}
	consider := func(l memmod.LocSet) {
		l = l.Resolve()
		if seen[l] || !l.Overlaps(v) {
			return
		}
		seen[l] = true
		var vals memmod.ValueSet
		var found bool
		if includeAt {
			vals, found = p.Pts.LookupOut(l, nd, barrier)
		} else {
			vals, found = p.Pts.LookupIn(l, nd, barrier)
		}
		if found {
			result.AddAll(vals)
		}
	}
	consider(v)
	for _, l := range v.Base.PtrLocs() {
		consider(l)
	}
	return result
}
