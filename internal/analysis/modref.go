package analysis

import (
	"fmt"
	"sort"
	"strings"

	"wlpa/internal/cfg"
	"wlpa/internal/memmod"
)

// This file computes per-procedure, per-context MOD/REF summaries from
// the converged fixpoint (paper §6: the parallelizer client consumes
// context-sensitive MOD/REF information derived from the points-to
// results). A procedure's MOD set is every location it may write —
// directly, through pointers, via library calls, or transitively through
// its callees — expressed in its own name space (extended parameters
// included); REF is the same for reads. Callee summaries are folded into
// callers by translating extended parameters back to the caller's
// locations through the call edge's parameter bindings, mirroring the
// engine's binding discipline read-only.

// offClamp bounds translated offsets: beyond it a location degrades to a
// block-level (stride-1) reference so recursive shift chains converge.
const offClamp = 4096

// CallEdge is one resolved call-graph edge at the PTF level: the call at
// Node inside Caller's body applied Callee's summary.
type CallEdge struct {
	Caller *PTF
	Node   *cfg.Node
	Callee *PTF
}

// CallGraphEdges returns every resolved PTF-level call edge (including
// recursive applications), deterministically sorted.
func (a *Analysis) CallGraphEdges() []CallEdge {
	var out []CallEdge
	for _, p := range a.AllPTFs() {
		out = append(out, sortedEdges(p)...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Caller.Proc.Name != out[j].Caller.Proc.Name {
			return out[i].Caller.Proc.Name < out[j].Caller.Proc.Name
		}
		if pi, pj := ptfIndex(out[i].Caller), ptfIndex(out[j].Caller); pi != pj {
			return pi < pj
		}
		if out[i].Node.ID != out[j].Node.ID {
			return out[i].Node.ID < out[j].Node.ID
		}
		if out[i].Callee.Proc.Name != out[j].Callee.Proc.Name {
			return out[i].Callee.Proc.Name < out[j].Callee.Proc.Name
		}
		return ptfIndex(out[i].Callee) < ptfIndex(out[j].Callee)
	})
	return out
}

func sortedEdges(p *PTF) []CallEdge {
	out := make([]CallEdge, 0, p.callEdges.size())
	p.callEdges.each(func(k siteKey, callee *PTF) bool {
		out = append(out, CallEdge{Caller: p, Node: k.nd, Callee: callee})
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Node.ID != out[j].Node.ID {
			return out[i].Node.ID < out[j].Node.ID
		}
		if out[i].Callee.Proc.Name != out[j].Callee.Proc.Name {
			return out[i].Callee.Proc.Name < out[j].Callee.Proc.Name
		}
		return ptfIndex(out[i].Callee) < ptfIndex(out[j].Callee)
	})
	return out
}

// AllocSite is a heap-allocation call site the analysis reached.
type AllocSite struct {
	Proc   *cfg.Proc
	Node   *cfg.Node
	Block  *memmod.Block
	Callee string // allocating function (malloc, strdup, fopen, ...)
}

// AllocSites returns every reached allocation site, sorted by position.
func (a *Analysis) AllocSites() []AllocSite {
	var out []AllocSite
	for _, fd := range a.prog.Funcs {
		proc, ok := a.procs[fd]
		if !ok {
			continue
		}
		for _, nd := range proc.Nodes {
			if nd.Kind != cfg.CallNode || nd.Direct == nil {
				continue
			}
			hb := a.heapBlocks[nd.Pos.String()]
			if hb == nil {
				continue
			}
			out = append(out, AllocSite{Proc: proc, Node: nd, Block: hb, Callee: nd.Direct.Name})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if pi, pj := out[i].Node.Pos.String(), out[j].Node.Pos.String(); pi != pj {
			return pi < pj
		}
		return out[i].Proc.Name < out[j].Proc.Name
	})
	return out
}

// ModRefTable holds the converged MOD/REF summaries, per PTF and per
// call node, and the parameter bindings of every call edge.
type ModRefTable struct {
	a   *Analysis
	mod map[*PTF]*memmod.ValueSet
	ref map[*PTF]*memmod.ValueSet
	// edges lists each context's call edges in sortedEdges order; binds
	// holds each edge's parameter bindings (edgeBindings), which the
	// fold translates through and BindingsAt serves.
	edges map[*PTF][]CallEdge
	binds map[CallEdge]map[*memmod.Block]memmod.ValueSet

	// nodeMod/nodeRef are per-call-node effects: library effects plus
	// (after convergence) the translated summary of every callee applied
	// at the node. Assign-node effects are not stored per node.
	nodeMod map[*PTF]map[*cfg.Node]*memmod.ValueSet
	nodeRef map[*PTF]map[*cfg.Node]*memmod.ValueSet
}

// ModRef builds (once) and returns the MOD/REF summary table. It must
// be called after Run has converged; the build is single-threaded and
// read-only with respect to the analysis state.
func (a *Analysis) ModRef() *ModRefTable {
	if a.modref != nil {
		return a.modref
	}
	t := &ModRefTable{
		a:       a,
		mod:     make(map[*PTF]*memmod.ValueSet),
		ref:     make(map[*PTF]*memmod.ValueSet),
		edges:   make(map[*PTF][]CallEdge),
		binds:   make(map[CallEdge]map[*memmod.Block]memmod.ValueSet),
		nodeMod: make(map[*PTF]map[*cfg.Node]*memmod.ValueSet),
		nodeRef: make(map[*PTF]map[*cfg.Node]*memmod.ValueSet),
	}
	ptfs := a.AllPTFs()
	for _, p := range ptfs {
		t.mod[p] = &memmod.ValueSet{}
		t.ref[p] = &memmod.ValueSet{}
		t.localEffects(p)
	}
	for _, p := range ptfs {
		t.edges[p] = sortedEdges(p)
		for _, e := range t.edges[p] {
			t.binds[e] = a.edgeBindings(p, e.Node, e.Callee)
		}
	}
	// Fold callee summaries into callers to a fixpoint. Exact offset
	// translation first; if convergence is slow (recursive shift
	// chains), degrade to block-level translation, whose lattice is
	// finite.
	exactRounds := 3*len(ptfs) + 10
	for round := 0; ; round++ {
		widen := round >= exactRounds
		changed := false
		for _, p := range ptfs {
			for _, e := range t.edges[p] {
				if t.foldEdge(e, widen) {
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	// Final per-node callee effects from the converged summaries.
	for _, p := range ptfs {
		for _, e := range t.edges[p] {
			var m, r memmod.ValueSet
			t.translateInto(*t.mod[e.Callee], t.binds[e], &m, false)
			t.translateInto(*t.ref[e.Callee], t.binds[e], &r, false)
			t.addNode(t.nodeMod, p, e.Node, m)
			t.addNode(t.nodeRef, p, e.Node, r)
		}
	}
	a.modref = t
	return t
}

// Of returns the MOD and REF summary of one context (PTF), in the PTF's
// own name space (extended parameters included). The returned sets are
// shared; callers must not mutate them.
func (t *ModRefTable) Of(p *PTF) (mod, ref memmod.ValueSet) {
	if m := t.mod[p]; m != nil {
		mod = *m
	}
	if r := t.ref[p]; r != nil {
		ref = *r
	}
	return mod, ref
}

// OfProc returns the context-collapsed MOD/REF summary of the named
// procedure: the union over its contexts with extended parameters
// resolved to the concrete locations they were bound to (requires
// CollectSolution for full resolution). ok reports whether the
// procedure exists; a defined-but-unreached procedure yields empty sets.
func (t *ModRefTable) OfProc(name string) (mod, ref memmod.ValueSet, ok bool) {
	fd := t.a.prog.FuncByName[name]
	if fd == nil {
		return mod, ref, false
	}
	proc := t.a.procs[fd]
	if proc == nil {
		return mod, ref, false
	}
	for _, p := range t.a.PTFs(name) {
		m, r := t.Of(p)
		addConcrete(&mod, t.a.Concretize(m))
		addConcrete(&ref, t.a.Concretize(r))
	}
	return mod, ref, true
}

func addConcrete(out *memmod.ValueSet, vals memmod.ValueSet) {
	for _, l := range vals.Locs() {
		if l.Base.Kind == memmod.ParamBlock {
			continue
		}
		out.Add(l)
	}
}

// NodeEffects returns the MOD/REF effects of one call node in context p:
// library effects plus the translated summaries of every callee applied
// there. Empty for nodes without call effects. The returned sets are
// shared; callers must not mutate them.
func (t *ModRefTable) NodeEffects(p *PTF, nd *cfg.Node) (mod, ref memmod.ValueSet) {
	if m := t.nodeMod[p][nd]; m != nil {
		mod = *m
	}
	if r := t.nodeRef[p][nd]; r != nil {
		ref = *r
	}
	return mod, ref
}

// Dump renders the per-procedure summaries deterministically (testing
// and diagnostics).
func (t *ModRefTable) Dump() []string {
	var names []string
	for _, fd := range t.a.prog.Funcs {
		if _, ok := t.a.procs[fd]; ok {
			names = append(names, fd.Name)
		}
	}
	sort.Strings(names)
	var out []string
	for _, name := range names {
		mod, ref, ok := t.OfProc(name)
		if !ok {
			continue
		}
		out = append(out, fmt.Sprintf("%s: MOD{%s} REF{%s}", name, renderLocs(mod), renderLocs(ref)))
	}
	return out
}

func renderLocs(vals memmod.ValueSet) string {
	strs := make([]string, 0, vals.Len())
	for _, l := range vals.Locs() {
		s := l.Base.Name
		if l.Off != 0 {
			s += fmt.Sprintf("+%d", l.Off)
		}
		if l.Stride != 0 {
			s += "[*]"
		}
		strs = append(strs, s)
	}
	sort.Strings(strs)
	return strings.Join(strs, ", ")
}

// localEffects computes the intra-procedural MOD/REF contribution of
// every node in p's body, including library-call effects.
func (t *ModRefTable) localEffects(p *PTF) {
	a := t.a
	for _, nd := range p.Proc.Nodes {
		switch nd.Kind {
		case cfg.AssignNode:
			t.lvalEffects(p, nd.Dst, nd, t.mod[p], t.ref[p])
			if nd.Aggregate {
				// Src denotes source locations: a block read.
				t.lvalEffects(p, nd.Src, nd, t.ref[p], t.ref[p])
			} else {
				t.exprRefs(p, nd.Src, nd, t.ref[p])
			}
		case cfg.CallNode:
			for _, ae := range nd.Args {
				t.exprRefs(p, ae, nd, t.ref[p])
			}
			t.exprRefs(p, nd.Fun, nd, t.ref[p])
			t.lvalEffects(p, nd.RetDst, nd, t.mod[p], t.ref[p])
			if nd.Direct != nil {
				if fd := a.prog.FuncByName[nd.Direct.Name]; fd == nil || fd.Body == nil {
					var m, r memmod.ValueSet
					t.libEffects(p, nd, &m, &r)
					t.mod[p].AddAll(m)
					t.ref[p].AddAll(r)
					t.addNode(t.nodeMod, p, nd, m)
					t.addNode(t.nodeRef, p, nd, r)
				}
			}
		}
	}
}

func (t *ModRefTable) addNode(tab map[*PTF]map[*cfg.Node]*memmod.ValueSet, p *PTF, nd *cfg.Node, vals memmod.ValueSet) {
	if vals.IsEmpty() {
		return
	}
	m := tab[p]
	if m == nil {
		m = make(map[*cfg.Node]*memmod.ValueSet)
		tab[p] = m
	}
	acc := m[nd]
	if acc == nil {
		nv := vals.Clone()
		m[nd] = &nv
		return
	}
	acc.AddAll(vals)
}

// lvalEffects adds the storage locations an lvalue expression denotes to
// mod, and the pointer reads needed to compute them to ref. Destination
// lvalues carry no extra dereference in the IR: a TermVar denotes the
// variable's own storage, a TermDeref writes through the pointer its
// base denotes (TermValuesAt resolves the write targets). Direct
// accesses to locals and the return-value slot are procedure-private and
// excluded; whatever a dereference hits is included (translation drops
// callee-private blocks at fold time).
func (t *ModRefTable) lvalEffects(p *PTF, e *cfg.Expr, nd *cfg.Node, mod, ref *memmod.ValueSet) {
	if e == nil {
		return
	}
	a := t.a
	for _, term := range e.Terms {
		switch term.Kind {
		case cfg.TermVar:
			if term.Sym != nil && term.Sym.Global {
				addEffect(mod, memmod.Values(a.VarLoc(p, term.Sym, term.Off, term.Stride)))
			}
		case cfg.TermStr:
			addEffect(mod, memmod.Values(memmod.Loc(a.strBlock(term.StrID, term.StrVal), term.Off, 1)))
		case cfg.TermDeref:
			addEffect(mod, a.TermValuesAt(p, term, nd))
			addRead(ref, a.EvalAt(p, term.Base, nd))
			t.exprRefs(p, term.Base, nd, ref)
		}
	}
}

// exprRefs adds every storage location read while evaluating e to ref.
// In the IR every source-level read appears as a TermDeref (rvalues
// carry an extra dereference), so the read locations are exactly what
// each dereference consults: its base's value set, at every depth. A
// bare TermVar is an address computation and reads nothing.
func (t *ModRefTable) exprRefs(p *PTF, e *cfg.Expr, nd *cfg.Node, ref *memmod.ValueSet) {
	if e == nil {
		return
	}
	a := t.a
	for _, term := range e.Terms {
		if term.Kind != cfg.TermDeref {
			continue
		}
		addRead(ref, a.EvalAt(p, term.Base, nd))
		t.exprRefs(p, term.Base, nd, ref)
	}
}

// addRead merges dereference-consulted locations into a REF set: like
// addEffect, but additionally skips procedure-private storage (locals
// and the return-value slot), which OfProc-level summaries exclude.
func addRead(out *memmod.ValueSet, vals memmod.ValueSet) {
	var public memmod.ValueSet
	for _, l := range vals.Locs() {
		l = l.Resolve()
		switch l.Base.Kind {
		case memmod.LocalBlock, memmod.RetvalBlock:
			continue
		}
		public.Add(l)
	}
	addEffect(out, public)
}

// addEffect merges locations into a MOD/REF set, skipping pseudo-storage
// that cannot be memory-modified (null, function code).
func addEffect(out *memmod.ValueSet, vals memmod.ValueSet) {
	for _, l := range vals.Locs() {
		l = l.Resolve()
		switch l.Base.Kind {
		case memmod.NullBlock, memmod.FuncBlock:
			continue
		}
		if l.Off > offClamp || l.Off < -offClamp {
			l = memmod.Loc(l.Base, 0, 1)
		}
		out.Add(l)
	}
}

// libEffects applies the declared MOD/REF behavior of a library call:
// argument pointees per LibEffect, or a conservative everything-reachable
// assumption for functions with neither a summary nor an effect entry.
func (t *ModRefTable) libEffects(p *PTF, nd *cfg.Node, mod, ref *memmod.ValueSet) {
	a := t.a
	name := nd.Direct.Name
	eff, ok := a.opts.LibEffects[name]
	if !ok {
		if _, summarized := a.opts.Lib[name]; summarized {
			return // summarized and declared effect-free
		}
		eff = LibEffect{ModAll: true, RefAll: true}
	}
	argTargets := func(i int) memmod.ValueSet {
		if i < 0 || i >= len(nd.Args) {
			return memmod.ValueSet{}
		}
		return a.EvalAt(p, nd.Args[i], nd).WithStride(1)
	}
	for _, i := range eff.ModArgs {
		addEffect(mod, argTargets(i))
	}
	for _, i := range eff.RefArgs {
		addEffect(ref, argTargets(i))
	}
	if eff.ModAll || eff.RefAll {
		var reach memmod.ValueSet
		for i := range nd.Args {
			reach.AddAll(argTargets(i))
		}
		// One extra level of indirection: storage reachable through the
		// arguments' pointees.
		var inner memmod.ValueSet
		for _, l := range reach.Locs() {
			inner.AddAll(a.ContentsAt(p, l, nd))
		}
		reach.AddAll(inner.WithStride(1))
		if eff.ModAll {
			addEffect(mod, reach)
		}
		if eff.RefAll {
			addEffect(ref, reach)
		}
	}
}

// edgeBindings re-derives, read-only, the parameter bindings of one call
// edge: for every extended parameter of the callee, the resolved
// caller-name-space values it was bound to at this site. This mirrors
// the engine's entryActuals/replayBind discipline (initial entries
// processed in creation order, so chained parameters resolve through
// earlier bindings). ModRef calls it once per call edge.
func (a *Analysis) edgeBindings(caller *PTF, nd *cfg.Node, callee *PTF) map[*memmod.Block]memmod.ValueSet {
	pm := make(map[*memmod.Block]memmod.ValueSet)
	add := func(p *memmod.Block, vals memmod.ValueSet) {
		if p == nil || vals.IsEmpty() {
			return
		}
		p = p.Representative()
		acc, ok := pm[p]
		if !ok {
			pm[p] = vals.Resolved().Clone()
			return
		}
		acc.AddAll(vals)
		pm[p] = acc
	}
	for _, e := range callee.initial {
		switch e.kind {
		case globalRefEntry:
			var al memmod.LocSet
			if caller == a.mainPTF {
				al = memmod.Loc(a.globalBlock(e.sym), 0, 0)
			} else if gp, ok := caller.globalParams.get(e.sym); ok {
				al = memmod.Loc(gp.Representative(), 0, 0)
			} else {
				continue
			}
			add(e.param, memmod.Values(al))
		case ptrInitEntry:
			if e.valEmpty {
				continue
			}
			val := e.val.Resolve()
			if val.Base == nil || val.Base.Kind != memmod.ParamBlock {
				continue
			}
			ptr := e.ptr.Resolve()
			var actuals memmod.ValueSet
			switch ptr.Base.Kind {
			case memmod.LocalBlock:
				idx := formalIndex(callee.Proc, ptr.Base.Sym)
				if idx < 0 || idx >= len(nd.Args) {
					continue
				}
				actuals = a.EvalAt(caller, nd.Args[idx], nd)
			case memmod.ParamBlock:
				bound, ok := pm[ptr.Base.Representative()]
				if !ok {
					continue
				}
				for _, b := range bound.Locs() {
					target := b.Shift(ptr.Off)
					if ptr.Stride != 0 {
						target = target.WithStride(ptr.Stride)
					}
					actuals.AddAll(a.ContentsAt(caller, target, nd))
				}
			default:
				continue
			}
			if actuals.IsEmpty() {
				continue
			}
			if val.Stride == 0 && val.Off != 0 {
				actuals = actuals.Shift(-val.Off)
			}
			add(val.Base, actuals)
		}
	}
	return pm
}

// foldEdge merges the callee's current summary, translated into the
// caller's name space, into the caller's summary. Reports growth.
func (t *ModRefTable) foldEdge(e CallEdge, widen bool) bool {
	changed := false
	pmap := t.binds[e]
	for _, pair := range [2]struct{ src, dst *memmod.ValueSet }{
		{t.mod[e.Callee], t.mod[e.Caller]},
		{t.ref[e.Callee], t.ref[e.Caller]},
	} {
		before := pair.dst.Len()
		t.translateInto(*pair.src, pmap, pair.dst, widen)
		if pair.dst.Len() != before {
			changed = true
		}
	}
	return changed
}

// translateInto maps callee-name-space locations into the caller's name
// space through the edge bindings: callee-private storage (locals, the
// retval slot) is dropped, extended parameters fold back to the actuals
// they were bound to (shifted by the location's offset), and everything
// else (globals in main, heap, strings) passes through unchanged. With
// widen, translation is block-level (offset 0, stride 1).
func (t *ModRefTable) translateInto(vals memmod.ValueSet, pmap map[*memmod.Block]memmod.ValueSet, out *memmod.ValueSet, widen bool) {
	for _, l := range vals.Locs() {
		l = l.Resolve()
		switch l.Base.Kind {
		case memmod.LocalBlock, memmod.RetvalBlock:
			continue
		case memmod.ParamBlock:
			bound, ok := pmap[l.Base.Representative()]
			if !ok {
				continue
			}
			if widen || l.Stride != 0 {
				for _, b := range bound.Locs() {
					b = b.Resolve()
					if b.Base.Kind == memmod.NullBlock || b.Base.Kind == memmod.FuncBlock {
						continue
					}
					out.Add(memmod.Loc(b.Base, 0, 1))
				}
				continue
			}
			addEffect(out, bound.Shift(l.Off))
		default:
			if widen {
				out.Add(memmod.Loc(l.Base, 0, 1))
			} else {
				addEffect(out, memmod.Values(l))
			}
		}
	}
}
