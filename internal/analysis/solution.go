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

// collectSolution builds the collapsed solution from the converged
// fixpoint. It is the only writer of solution state (the solution's
// facts, paramConcrete and the formal bindings), so the fixpoint is the
// same with or without CollectSolution, and the solution is independent
// of iteration history: bindings made while iterating include transient
// intermediate values that depend on evaluation order (and so differ
// between the worklist engine and the full-pass fallback). A pass over
// the fixpoint, with dependency tracking off, re-derives every
// parameter binding and formal binding, and the final sparse records of
// every PTF are then mirrored wholesale. The pass descends into each
// PTF once, in the first context that reaches it; later call sites only
// bind, since a revisit would re-record the callee's own sites' raw
// values, which concretize resolves the same way whichever caller
// reached it. Each visit is one confirming sweep of the PTF unless the
// sweep changes it (see evalProcFull).
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
	a.stats.CollectSweeps, a.stats.CollectGrowths = 0, 0
	a.visit(mf)
	a.collecting = nil
	a.track = track
	for _, l := range a.ptfs {
		for _, p := range l {
			for _, loc := range p.Pts.Locations() {
				for _, r := range p.Pts.Records(loc) {
					if r.Vals.IsEmpty() {
						continue
					}
					a.solution.add(loc, r.Vals)
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

// bindParamConcrete accumulates, during solution collection, the raw
// actual values a parameter was bound to in some context; they resolve
// transitively in concretize.
func (a *Analysis) bindParamConcrete(p *memmod.Block, vals memmod.ValueSet) {
	if a.collecting == nil || vals.IsEmpty() {
		return
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

// recordFormalBindings mirrors argument-to-formal bindings into the
// collapsed solution during solution collection. The analysis itself
// creates extended parameters for formals lazily (unreferenced formals
// get none, paper §2.2), but the whole-program solution — and the
// interpreter soundness oracle checking it — covers the binding of
// every formal.
func (a *Analysis) recordFormalBindings(cf *frame, fd *cast.FuncDecl, args []memmod.ValueSet) {
	if a.collecting == nil || fd == nil {
		return
	}
	for i, p := range fd.Params {
		if p.Sym == nil || i >= len(args) || args[i].IsEmpty() {
			continue
		}
		a.solution.add(memmod.Loc(cf.ptf.localBlock(p.Sym), 0, 0), args[i])
	}
}
