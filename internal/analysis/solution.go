package analysis

import (
	"sort"

	"wlpa/internal/cast"
	"wlpa/internal/memmod"
)

// Solution is a collapsed whole-program view of the analysis results:
// every points-to fact established in any context. Facts are stored in
// their parametrized form and resolved to concrete (non-parametrized)
// blocks lazily at query time, using the accumulated union of every
// actual binding each extended parameter ever received. It exists to
// support queries and the interpreter-based soundness oracle; the
// analysis itself works only on the per-PTF sparse representations.
type Solution struct {
	raw map[memmod.LocSet]*memmod.ValueSet

	// resolve maps parametrized values to concrete ones (installed by
	// the owning Analysis).
	resolve func(memmod.ValueSet) memmod.ValueSet

	// cache of the fully resolved facts, built on first query.
	resolved map[memmod.LocSet]*memmod.ValueSet
	dirty    bool
}

func newSolution() *Solution {
	return &Solution{raw: make(map[memmod.LocSet]*memmod.ValueSet), dirty: true}
}

// add records vals at loc. The solution records storage only: null is
// dropped from the values.
func (s *Solution) add(loc memmod.LocSet, vals memmod.ValueSet) {
	vals = vals.WithoutNull()
	loc = loc.Resolve()
	s.dirty = true
	v, ok := s.raw[loc]
	if !ok {
		nv := vals.Clone()
		s.raw[loc] = &nv
		return
	}
	v.AddAll(vals)
}

// materialize resolves all raw facts to concrete blocks.
func (s *Solution) materialize() {
	if !s.dirty && s.resolved != nil {
		return
	}
	s.resolved = make(map[memmod.LocSet]*memmod.ValueSet, len(s.raw))
	for k, v := range s.raw {
		keys := s.resolve(memmod.Values(k))
		vals := s.resolve(*v)
		if vals.IsEmpty() {
			continue
		}
		for _, ck := range keys.Locs() {
			if ck.Base.Kind == memmod.ParamBlock {
				continue
			}
			acc, ok := s.resolved[ck]
			if !ok {
				nv := vals.Clone()
				s.resolved[ck] = &nv
				continue
			}
			acc.AddAll(vals)
		}
	}
	s.dirty = false
}

// PointsTo returns the recorded may-point-to set of a concrete location.
// Facts recorded under overlapping location sets are merged.
func (s *Solution) PointsTo(loc memmod.LocSet) memmod.ValueSet {
	s.materialize()
	var out memmod.ValueSet
	for k, v := range s.resolved {
		if k.Overlaps(loc) {
			out.AddAll(*v)
		}
	}
	return out
}

// Locations returns all concrete locations with recorded facts, sorted
// by name.
func (s *Solution) Locations() []memmod.LocSet {
	s.materialize()
	out := make([]memmod.LocSet, 0, len(s.resolved))
	for k := range s.resolved {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Base.Name != out[j].Base.Name {
			return out[i].Base.Name < out[j].Base.Name
		}
		if out[i].Off != out[j].Off {
			return out[i].Off < out[j].Off
		}
		return out[i].Stride < out[j].Stride
	})
	return out
}

// recordSolution mirrors an assignment into the collapsed solution in
// parametrized form; resolution happens at query time.
func (a *Analysis) recordSolution(loc memmod.LocSet, vals memmod.ValueSet) {
	if a.solution == nil {
		return
	}
	a.solution.add(loc, vals)
}

// mirrorSummary records every points-to fact of a callee instance into
// the collapsed solution. With raw (parametrized) storage this is cheap
// and context-independent: bindings accumulate separately per parameter.
func (a *Analysis) mirrorSummary(cf *frame) {
	if a.solution == nil {
		return
	}
	// Every record mutation in a callee bumps its version, so an
	// unchanged version means this mirror would be a no-op (the union
	// in the solution is idempotent).
	if cf.ptf.version == cf.ptf.mirrored {
		return
	}
	cf.ptf.mirrored = cf.ptf.version
	for _, loc := range cf.ptf.Pts.Locations() {
		for _, r := range cf.ptf.Pts.Records(loc) {
			if r.Vals.IsEmpty() {
				continue
			}
			a.recordSolution(loc, r.Vals)
		}
	}
}

// collectSolution rebuilds the collapsed solution from the converged
// fixpoint so that it is independent of iteration history: facts and
// parameter bindings accumulated while iterating include transient
// intermediate values that depend on evaluation order (and so differ
// between the worklist engine and the full-pass fallback). A final
// pass over the fixpoint — which changes no analysis fact — re-derives
// every parameter binding and formal binding, and the final sparse
// records of every PTF are then mirrored wholesale. The pass descends
// into each PTF once; later call sites only bind, since a revisit would
// re-record the callee's own sites' raw values, which concretize
// resolves the same way whichever caller reached it.
func (a *Analysis) collectSolution(mf *frame) {
	for k := range a.solution.raw {
		delete(a.solution.raw, k)
	}
	a.solution.resolved = nil
	a.solution.dirty = true
	for p := range a.paramConcrete {
		delete(a.paramConcrete, p)
	}
	track := a.track
	a.track = false
	a.collecting = map[*PTF]bool{mf.ptf: true}
	a.collectVisits = 0
	a.stack = append(a.stack[:0], mf)
	a.evalProc(mf)
	a.stack = a.stack[:0]
	a.collecting = nil
	a.track = track
	// At the fixpoint no assignment changes, so the pass above records
	// bindings but no facts; mirror every PTF's final records directly.
	for _, l := range a.ptfs {
		for _, p := range l {
			for _, loc := range p.Pts.Locations() {
				for _, r := range p.Pts.Records(loc) {
					if r.Vals.IsEmpty() {
						continue
					}
					a.recordSolution(loc, r.Vals)
				}
			}
		}
	}
}

// concretize maps parametrized locations to concrete blocks: each
// extended parameter stands for the union of every actual binding it
// ever received (context-collapsed), resolved transitively since
// bindings may themselves name parameters of outer procedures.
func (a *Analysis) concretize(vals memmod.ValueSet, depth int) memmod.ValueSet {
	var out memmod.ValueSet
	a.concretizeInto(vals, &out, make(map[memmod.LocSet]bool), depth)
	return out
}

func (a *Analysis) concretizeInto(vals memmod.ValueSet, out *memmod.ValueSet, seen map[memmod.LocSet]bool, depth int) {
	if depth > 64 {
		return
	}
	for _, l := range vals.Locs() {
		l = l.Resolve()
		if seen[l] {
			continue
		}
		seen[l] = true
		if l.Base.Kind != memmod.ParamBlock {
			out.Add(l)
			continue
		}
		acc, ok := a.paramConcrete[l.Base]
		if !ok {
			continue
		}
		adjusted := acc.Shift(l.Off)
		if l.Stride != 0 {
			adjusted = adjusted.WithStride(l.Stride)
		}
		a.concretizeInto(adjusted, out, seen, depth+1)
	}
}

// bindParamConcrete accumulates the raw actual values a parameter was
// bound to in some context; they resolve transitively in concretize.
func (a *Analysis) bindParamConcrete(p *memmod.Block, vals memmod.ValueSet) {
	if a.paramConcrete == nil || vals.IsEmpty() {
		return
	}
	if a.solution != nil {
		a.solution.dirty = true
	}
	p = p.Representative()
	acc, ok := a.paramConcrete[p]
	if !ok {
		nv := vals.Resolved().Clone()
		a.paramConcrete[p] = &nv
		return
	}
	acc.AddAll(vals)
}

// recordFormalBindings eagerly mirrors argument-to-formal bindings into
// the collapsed solution. The analysis itself creates extended
// parameters for formals lazily (unreferenced formals get none, paper
// §2.2), but the whole-program solution — and the interpreter soundness
// oracle checking it — covers the binding of every formal.
func (a *Analysis) recordFormalBindings(cf *frame, fd *cast.FuncDecl, args []memmod.ValueSet) {
	if a.solution == nil || fd == nil {
		return
	}
	for i, p := range fd.Params {
		if p.Sym == nil || i >= len(args) || args[i].IsEmpty() {
			continue
		}
		loc := memmod.Loc(cf.ptf.localBlock(p.Sym), 0, 0)
		a.recordSolution(loc, args[i])
	}
}
