package analysis

import (
	"wlpa/internal/cast"
	"wlpa/internal/cfg"
	"wlpa/internal/ctype"
	"wlpa/internal/memmod"
)

// localBlock returns (creating if needed) the block of a local symbol
// within a PTF's name space.
func (p *PTF) localBlock(sym *cast.Symbol) *memmod.Block {
	if b, ok := p.locals.get(sym); ok {
		return b
	}
	b := memmod.NewLocal(sym)
	p.locals.put(sym, b)
	return b
}

// globalBlock returns the real storage block of a global symbol.
func (a *Analysis) globalBlock(sym *cast.Symbol) *memmod.Block {
	if b, ok := a.globalBlocks[sym]; ok {
		return b
	}
	b := memmod.NewGlobal(sym)
	a.globalBlocks[sym] = b
	return b
}

// funcBlock returns the block representing a function value.
func (a *Analysis) funcBlock(sym *cast.Symbol) *memmod.Block {
	if b, ok := a.funcBlocks[sym]; ok {
		return b
	}
	b := memmod.NewFunc(sym)
	a.funcBlocks[sym] = b
	return b
}

// strBlock returns the block of a string literal.
func (a *Analysis) strBlock(id int, val string) *memmod.Block {
	if b, ok := a.strBlocks[id]; ok {
		return b
	}
	b := memmod.NewString(id, val)
	a.strBlocks[id] = b
	return b
}

// heapBlock returns the heap block of a static allocation site.
func (a *Analysis) heapBlock(site *cfg.Node) *memmod.Block {
	key := site.Pos.String()
	if b, ok := a.heapBlocks[key]; ok {
		return b
	}
	b := memmod.NewHeap(site.Pos)
	a.heapBlocks[key] = b
	return b
}

// newParam allocates a fresh extended parameter in f's PTF bound to the
// given actuals. The parameter's name indexes within its PTF.
func (a *Analysis) newParam(f *frame, hint string, actuals memmod.ValueSet) *memmod.Block {
	a.stats.Params++
	p := memmod.NewParam(len(f.ptf.params)+1, hint)
	if f.ptf.params == nil {
		f.ptf.params = make([]*memmod.Block, 0, 8)
	}
	f.ptf.params = append(f.ptf.params, p)
	f.pmap[p] = a.arena.CloneSet(actuals)
	a.bindParamConcrete(f, p, actuals)
	return p
}

// varBlockLoc resolves a TermVar to a location set in the frame's name
// space: locals map to local blocks; globals map to the frame's global
// parameter (or the real block at the outermost frame).
func (a *Analysis) varBlockLoc(f *frame, sym *cast.Symbol, off, stride int64) memmod.LocSet {
	if sym == f.ptf.Proc.Retval || sym.Name == "<retval>" {
		return memmod.Loc(f.ptf.retval, off, stride)
	}
	if sym.Global {
		if f.caller == nil {
			return memmod.Loc(a.globalBlock(sym), off, stride)
		}
		return memmod.Loc(a.globalParam(f, sym), off, stride)
	}
	return memmod.Loc(f.ptf.localBlock(sym), off, stride)
}

// globalParam returns (creating and recording if needed) the extended
// parameter representing global sym inside f's PTF, binding its actuals
// to the caller's representation of the global.
func (a *Analysis) globalParam(f *frame, sym *cast.Symbol) *memmod.Block {
	if p, ok := f.ptf.globalParams.get(sym); ok {
		p = p.Representative()
		if _, bound := f.pmap[p]; !bound {
			actual := memmod.Values(a.callerGlobalLoc(f, sym))
			f.pmap[p] = actual
			a.bindParamConcrete(f, p, actual)
		}
		return p
	}
	actual := a.callerGlobalLoc(f, sym)
	// The global may already be covered by a pointer-reached parameter.
	if p, delta, exact := a.findCoveringParam(f, a.arena.Value1(actual)); p != nil && exact && delta == 0 {
		f.ptf.globalParams.put(sym, p)
		a.appendInitial(f.ptf, initEntry{kind: globalRefEntry, sym: sym, param: p})
		a.bumpVersion(f.ptf)
		return p
	}
	p := a.newParam(f, sym.Name, a.arena.Value1(actual))
	f.ptf.globalParams.put(sym, p)
	a.appendInitial(f.ptf, initEntry{kind: globalRefEntry, sym: sym, param: p})
	a.bumpVersion(f.ptf)
	a.changed = true
	return p
}

// callerGlobalLoc returns the caller-name-space location of global sym
// for calls made by frame f: the real global block when the caller is the
// outermost frame (whose own references also use the real block), else
// the caller's extended parameter for the global.
func (a *Analysis) callerGlobalLoc(f *frame, sym *cast.Symbol) memmod.LocSet {
	if f.caller == nil {
		return memmod.Loc(a.globalBlock(sym), 0, 0)
	}
	return a.globalLocIn(f.caller, sym)
}

// findCoveringParam looks for an existing parameter whose actuals cover
// the given values. It returns the parameter, the offset delta such that
// values correspond to (param, delta), and whether the correspondence is
// exact (consistent delta across all pairs).
func (a *Analysis) findCoveringParam(f *frame, values memmod.ValueSet) (*memmod.Block, int64, bool) {
	for _, p := range f.ptf.params {
		if p.Forwarded() != nil {
			continue
		}
		bound, ok := f.pmap[p]
		if !ok {
			continue
		}
		delta, exact, covered := coverage(bound, values)
		if covered {
			return p, delta, exact
		}
	}
	return nil, 0, false
}

// coverage decides whether values are covered by the anchor set bound:
// every value's base block appears in bound. delta is the consistent
// offset (value = anchor + delta) when exact.
func coverage(bound, values memmod.ValueSet) (delta int64, exact, covered bool) {
	exact = true
	first := true
	for _, v := range values.Locs() {
		v = v.Resolve()
		found := false
		for _, b := range bound.Locs() {
			b = b.Resolve()
			if b.Base.Representative() != v.Base.Representative() {
				continue
			}
			found = true
			if b.Stride != 0 || v.Stride != 0 {
				exact = false
				break
			}
			d := v.Off - b.Off
			if first {
				delta, first = d, false
			} else if d != delta {
				exact = false
			}
			break
		}
		if !found {
			return 0, false, false
		}
	}
	if first {
		// No scalar pair found a delta.
		exact = false
	}
	return delta, exact, true
}

// blocksOverlap reports whether any base block of values appears in bound.
func blocksOverlap(bound, values memmod.ValueSet) bool {
	for _, v := range values.Locs() {
		for _, b := range bound.Locs() {
			if b.Resolve().Base.Representative() == v.Resolve().Base.Representative() {
				return true
			}
		}
	}
	return false
}

// getInitial resolves the initial (procedure-entry) value of the pointer
// location v in frame f, creating extended parameters as needed (paper
// §2.3, §3.2). The result is recorded in the PTF's initial points-to
// function and seeded as an entry record so later lookups hit it.
func (a *Analysis) getInitial(f *frame, v memmod.LocSet) memmod.ValueSet {
	v = v.Resolve()
	// Already recorded?
	if r := f.ptf.Pts.RecordAt(v, f.ptf.Proc.Entry); r != nil {
		return r.Vals.Resolved()
	}
	var actuals memmod.ValueSet
	switch v.Base.Kind {
	case memmod.LocalBlock:
		// Formal parameters start with the actual argument values;
		// other locals start uninitialized.
		idx := formalIndex(f.ptf.Proc, v.Base.Sym)
		if idx < 0 || f.callNode == nil {
			if idx >= 0 && f.caller == nil && f.ptf.Proc.Name == "main" {
				// main's argv: unknown outside world; model as
				// pointing nowhere (no file pointers, per the
				// paper's input restrictions).
				return memmod.ValueSet{}
			}
			return memmod.ValueSet{}
		}
		if idx < len(f.args) {
			actuals = f.args[idx]
		}
	case memmod.ParamBlock:
		bound, ok := f.pmap[v.Base]
		if !ok {
			return memmod.ValueSet{}
		}
		// The initial contents of the parameter at position v come
		// from dereferencing the actuals at the call site.
		caller := f.caller
		if caller == nil {
			return memmod.ValueSet{}
		}
		for _, b := range bound.Locs() {
			target := b.Shift(v.Off)
			if v.Stride != 0 {
				target = target.WithStride(v.Stride)
			}
			a.arena.AddAll(&actuals, a.evalContents(caller, target, f.callNode))
		}
	case memmod.GlobalBlock:
		// Real global storage (outermost frame): initial values come
		// from static initializers, seeded before analysis; a miss
		// means "no pointer value".
		return memmod.ValueSet{}
	case memmod.StringBlock, memmod.HeapBlock, memmod.RetvalBlock, memmod.FuncBlock, memmod.NullBlock:
		return memmod.ValueSet{}
	}
	// A formal's initial contents are exactly the actual argument
	// values; a parameter's are the dereferenced actuals. Either way
	// they are translated into the callee's name space via extended
	// parameters.
	return a.bindInitial(f, v, actuals)
}

// bindInitial maps caller-name-space values to a single extended
// parameter in f's PTF, recording the initial points-to entry and
// seeding the entry record.
func (a *Analysis) bindInitial(f *frame, v memmod.LocSet, actuals memmod.ValueSet) memmod.ValueSet {
	v = v.Resolve()
	v.Base.AddPtrLoc(v)
	var val memmod.LocSet
	empty := actuals.IsEmpty()
	if empty {
		e := initEntry{kind: ptrInitEntry, ptr: v, valEmpty: true}
		a.appendInitial(f.ptf, e)
		a.bumpVersion(f.ptf)
		f.ptf.Pts.Assign(v, memmod.ValueSet{}, f.ptf.Proc.Entry, false)
		return memmod.ValueSet{}
	}
	p, delta, exact := a.findCoveringParam(f, actuals)
	switch {
	case p != nil && exact:
		val = memmod.Loc(p, delta, 0)
	case p != nil && !exact:
		val = memmod.Loc(p, 0, 1)
	default:
		// Aliased with one or more existing parameters but with new
		// values too? Subsume them all into a fresh parameter
		// (paper Figure 6).
		var overlapped []*memmod.Block
		for _, q := range f.ptf.params {
			if q.Forwarded() != nil {
				continue
			}
			if bound, ok := f.pmap[q]; ok && blocksOverlap(bound, actuals) {
				overlapped = append(overlapped, q)
			}
		}
		hint := hintFor(v)
		if len(overlapped) == 0 {
			np := a.newParam(f, hint, actuals)
			val = memmod.Loc(np, 0, 0)
			p = np
		} else {
			merged := actuals.Clone()
			for _, q := range overlapped {
				merged.AddAll(f.pmap[q])
			}
			np := a.newParam(f, hint, merged)
			for _, q := range overlapped {
				d, ex := subsumeDelta(f.pmap[q], merged)
				q.Subsume(np, d, !ex)
				a.subsumeEverywhere(q, np)
				a.migrateReaders(q, np)
			}
			f.ptf.Pts.Rehome()
			// Everything read through the merged parameter may resolve
			// differently now.
			a.notifyWrite(np)
			val = memmod.Loc(np, 0, 1)
			// The exact placement of these values within the merged
			// parameter is unknown unless a consistent delta exists.
			if d, ex, cov := coverage(merged, actuals); cov && ex {
				val = memmod.Loc(np, d, 0)
			}
			p = np
		}
	}
	// Uniqueness bookkeeping (paper §4.1): a parameter pointed to by
	// more than one input pointer whose actuals are not a single
	// unique location loses uniqueness.
	rep := val.Base.Representative()
	if f.ptf.pointedBy == nil {
		f.ptf.pointedBy = make(map[*memmod.Block]int, 8)
	}
	f.ptf.pointedBy[rep]++
	if f.ptf.pointedBy[rep] > 1 {
		bound := f.pmap[rep]
		if !(bound.Len() == 1 && bound.Locs()[0].Precise()) {
			a.setNotUnique(rep)
		}
	}
	if actuals.Len() > 1 {
		// Multiple possible objects at once is fine (one at a time),
		// but if any actual is itself imprecise the parameter cannot
		// be strongly updated... it still can: at any moment it is
		// one object. Keep unique per the paper.
		_ = rep
	}
	e := initEntry{kind: ptrInitEntry, ptr: v, val: val}
	a.appendInitial(f.ptf, e)
	a.bumpVersion(f.ptf)
	a.changed = true
	vals := memmod.Values(val)
	f.ptf.Pts.Assign(v, vals, f.ptf.Proc.Entry, false)
	a.recordSolution(f, v, vals)
	return vals
}

// subsumeDelta computes the forwarding delta for a subsumed parameter:
// the offset of its anchor within the merged anchor set.
func subsumeDelta(oldBound, merged memmod.ValueSet) (int64, bool) {
	d, exact, covered := coverage(merged, oldBound)
	if !covered || !exact {
		return 0, false
	}
	// oldBound = merged + d means old anchor sits at +d... we need the
	// delta such that (old, off) -> (new, off+delta); old anchor
	// corresponds to new anchor + d.
	return d, true
}

// subsumeEverywhere merges per-PTF bookkeeping after q was subsumed by
// np. The pmap bindings and fp domains resolve lazily through
// Representative(), so only the pointed-by counts need merging. Only
// the activation stack can hold affected frames.
func (a *Analysis) subsumeEverywhere(q, np *memmod.Block) {
	for _, fr := range a.stack {
		if fr.ptf == nil {
			continue
		}
		if n := fr.ptf.pointedBy[q]; n > 0 {
			fr.ptf.pointedBy[np] += n
			delete(fr.ptf.pointedBy, q)
		}
	}
}

// migrateReaders moves the read registrations of a subsumed block to its
// subsumer (registrations key on the representative at registration
// time) and re-dirties them: their reads resolve differently now.
func (a *Analysis) migrateReaders(q, np *memmod.Block) {
	if !a.track {
		return
	}
	np = np.Representative()
	old, ok := a.readers[q]
	if !ok {
		return
	}
	delete(a.readers, q)
	for _, k := range old.list {
		a.addReader(np, k)
		a.markDirty(k.ptf, k.nd)
	}
	for k := range old.m {
		a.addReader(np, k)
		a.markDirty(k.ptf, k.nd)
	}
}

// hintFor produces the paper-style name hint for a new parameter from
// the pointer that first reached it.
func hintFor(v memmod.LocSet) string {
	name := v.Base.Name
	if v.Off != 0 || v.Stride != 0 {
		return name + "+"
	}
	return name
}

// formalIndex returns the position of sym among proc's formals, or -1.
func formalIndex(proc *cfg.Proc, sym *cast.Symbol) int {
	if sym == nil {
		return -1
	}
	for i, p := range proc.Fn.Params {
		if p.Sym == sym {
			return i
		}
	}
	return -1
}

// seedGlobals installs the static initializers of globals as entry
// records of main's points-to function.
func (a *Analysis) seedGlobals(mf *frame) {
	entry := mf.ptf.Proc.Entry
	for _, vd := range a.prog.GlobalInits {
		if vd.Sym == nil || vd.Init == nil {
			continue
		}
		base := memmod.Loc(a.globalBlock(vd.Sym), 0, 0)
		a.seedInit(mf, entry, base, vd.Sym.Type, vd.Init)
	}
}

// seedInit seeds one global initializer value at loc.
func (a *Analysis) seedInit(mf *frame, entry *cfg.Node, loc memmod.LocSet, t *ctype.Type, init cast.Expr) {
	switch init := init.(type) {
	case *cast.InitList:
		switch t.Kind {
		case ctype.Array:
			esz := t.Elem.Sizeof()
			for _, el := range init.Elems {
				a.seedInit(mf, entry, loc.WithStride(esz), t.Elem, el)
			}
		case ctype.Struct:
			for i, el := range init.Elems {
				if i >= len(t.Fields) {
					break
				}
				f := t.Fields[i]
				a.seedInit(mf, entry, loc.Shift(f.Offset), f.Type, el)
			}
		default:
			if len(init.Elems) > 0 {
				a.seedInit(mf, entry, loc, t, init.Elems[0])
			}
		}
	default:
		vals := a.constInitValues(init)
		if vals.IsEmpty() {
			return
		}
		loc.Base.AddPtrLoc(loc)
		mf.ptf.Pts.Assign(loc, vals, entry, false)
		if a.solution != nil {
			a.solution.add(loc, vals)
		}
	}
}

// constInitValues evaluates a constant initializer expression to pointer
// values: &global, function names, and string literals.
func (a *Analysis) constInitValues(e cast.Expr) memmod.ValueSet {
	switch e := e.(type) {
	case *cast.Unary:
		if e.Op == cast.Addr {
			return a.constAddr(e.X, 0)
		}
	case *cast.Ident:
		if e.Sym != nil && e.Sym.Kind == cast.SymFunc {
			return memmod.Values(memmod.Loc(a.funcBlock(e.Sym), 0, 0))
		}
		if e.Sym != nil && e.Sym.Type != nil && e.Sym.Type.Kind == ctype.Array {
			return memmod.Values(memmod.Loc(a.globalBlock(e.Sym), 0, 0))
		}
	case *cast.StrLit:
		return memmod.Values(memmod.Loc(a.strBlock(e.ID, e.Value), 0, 0))
	case *cast.Cast:
		return a.constInitValues(e.X)
	}
	return memmod.ValueSet{}
}

// constAddr resolves &expr in a constant initializer.
func (a *Analysis) constAddr(e cast.Expr, off int64) memmod.ValueSet {
	switch e := e.(type) {
	case *cast.Ident:
		if e.Sym == nil {
			return memmod.ValueSet{}
		}
		if e.Sym.Kind == cast.SymFunc {
			return memmod.Values(memmod.Loc(a.funcBlock(e.Sym), 0, 0))
		}
		if e.Sym.Global {
			return memmod.Values(memmod.Loc(a.globalBlock(e.Sym), off, 0))
		}
	case *cast.Member:
		if e.Field != nil && !e.Arrow {
			return a.constAddr(e.X, off+e.Field.Offset)
		}
	case *cast.Index:
		// &arr[i]: position within the array is ignored (stride).
		inner := a.constAddr(e.X, off)
		return inner.WithStride(1)
	}
	return memmod.ValueSet{}
}
