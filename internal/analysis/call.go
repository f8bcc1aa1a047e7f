package analysis

import (
	"sort"

	"wlpa/internal/cast"
	"wlpa/internal/cfg"
	"wlpa/internal/memmod"
)

// evalCall evaluates a procedure call node (paper Figure 12).
func (a *Analysis) evalCall(f *frame, nd *cfg.Node) bool {
	args := a.carveVals(len(nd.Args))
	for i, ae := range nd.Args {
		args[i] = a.evalExpr(f, ae, nd)
	}
	var targets []*cast.Symbol
	if nd.Direct != nil {
		targets = []*cast.Symbol{nd.Direct}
	} else {
		fv := a.evalExpr(f, nd.Fun, nd)
		targets = a.callTargets(f, nd, fv)
		if len(targets) == 0 {
			return false // target unknown yet; iteration will return
		}
	}
	multi := len(targets) > 1
	changed := false
	for _, sym := range targets {
		if fd := a.prog.FuncByName[sym.Name]; fd != nil && fd.Body != nil {
			if a.callDefined(f, nd, fd, args, multi) {
				changed = true
			}
		} else {
			if a.callLibrary(f, nd, sym.Name, args, multi) {
				changed = true
			}
		}
	}
	return changed
}

// callTargets resolves function-pointer values to function symbols,
// flagging extended parameters used as call targets and recording their
// values in the PTF input domain (paper §5.1). Resolutions not
// involving extended parameters are cached per call node (parameter
// values resolve through the activation's bindings and have input-domain
// side effects, so they are recomputed). nd may be nil (library
// callback invocation), which disables caching.
func (a *Analysis) callTargets(f *frame, nd *cfg.Node, fv memmod.ValueSet) []*cast.Symbol {
	hasParam := false
	for _, l := range fv.Locs() {
		if l.Resolve().Base.Kind == memmod.ParamBlock {
			hasParam = true
			break
		}
	}
	cacheable := nd != nil && !hasParam
	if cacheable {
		if e, ok := f.ptf.targetCache[nd]; ok && e.fv.Equal(fv) {
			return e.syms
		}
	}
	out := make(map[*cast.Symbol]bool)
	for _, l := range fv.Locs() {
		l = l.Resolve()
		if l.Base.Kind == memmod.ParamBlock {
			p := l.Base.Representative()
			p.FuncPtr = true
			set := f.ptf.fpDomain[p]
			if set == nil {
				set = make(map[*cast.Symbol]bool)
				if f.ptf.fpDomain == nil {
					f.ptf.fpDomain = make(map[*memmod.Block]map[*cast.Symbol]bool)
				}
				f.ptf.fpDomain[p] = set
			}
			resolved := make(map[*cast.Symbol]bool)
			a.resolveFuncSyms(f, memmod.Values(l), resolved, f, nd)
			for s := range resolved {
				if !set[s] {
					set[s] = true
					a.bumpVersion(f.ptf)
				}
				out[s] = true
			}
			continue
		}
		a.resolveFuncSyms(f, memmod.Values(l), out, f, nd)
	}
	syms := make([]*cast.Symbol, 0, len(out))
	for s := range out {
		syms = append(syms, s)
	}
	sort.Slice(syms, func(i, j int) bool { return syms[i].Name < syms[j].Name })
	if cacheable {
		if f.ptf.targetCache == nil {
			f.ptf.targetCache = make(map[*cfg.Node]*targetEntry)
		}
		f.ptf.targetCache[nd] = &targetEntry{fv: fv.Clone(), syms: syms}
	}
	return syms
}

// funcSymVisit is a visited-set key for resolveFuncSyms: a parameter
// binding already followed within one frame.
type funcSymVisit struct {
	f *frame
	b *memmod.Block
}

// resolveFuncSyms follows parameter bindings up the call stack until
// function blocks are reached. origin and nd, when non-nil, identify
// the indirect-call node driving the resolution: every parameter the
// chain traverses is then flagged FuncPtr and registered as a read of
// that node, so a later re-bind that grows a traversed parameter's
// values (extendFuncPtrVals) re-dirties the call site. The bindings
// live in frame-local pmaps the points-to dependency tracker cannot
// see, so without this edge the worklist engine keeps a stale fpDomain
// when a function-pointer value arrives after the site's last visit.
// Match probes (fpDomain comparison) pass nil: they evaluate nothing.
func (a *Analysis) resolveFuncSyms(f *frame, vals memmod.ValueSet, out map[*cast.Symbol]bool, origin *frame, nd *cfg.Node) {
	a.resolveFuncSymsRec(f, vals, out, make(map[funcSymVisit]bool), origin, nd)
}

func (a *Analysis) resolveFuncSymsRec(f *frame, vals memmod.ValueSet, out map[*cast.Symbol]bool, vis map[funcSymVisit]bool, origin *frame, nd *cfg.Node) {
	for _, l := range vals.Locs() {
		l = l.Resolve()
		switch l.Base.Kind {
		case memmod.FuncBlock:
			out[l.Base.Sym] = true
		case memmod.ParamBlock:
			p := l.Base.Representative()
			// The outermost frame resolves its own bindings (caller ==
			// nil recurses into the same frame), so a self-referential
			// binding would loop forever without the visited set.
			if vis[funcSymVisit{f, p}] {
				continue
			}
			vis[funcSymVisit{f, p}] = true
			if a.track && origin != nil {
				p.FuncPtr = true
				a.registerRead(origin, p, nd)
			}
			bound, ok := f.pmap[p]
			if !ok {
				continue
			}
			next := f.caller
			if next == nil {
				next = f
			}
			a.resolveFuncSymsRec(next, bound, out, vis, origin, nd)
		}
	}
}

// callDefined handles a call to a function with a body.
func (a *Analysis) callDefined(f *frame, nd *cfg.Node, fd *cast.FuncDecl, args []memmod.ValueSet, multi bool) bool {
	return a.callDefinedRet(f, nd, fd, args, multi, true)
}

// callDefinedRet is callDefined with control over whether the call
// node's return destination receives the callee's return value (library
// callback invocations share the library call's node but must not write
// its RetDst).
func (a *Analysis) callDefinedRet(f *frame, nd *cfg.Node, fd *cast.FuncDecl, args []memmod.ValueSet, multi, withRet bool) bool {
	proc := a.procs[fd]
	// Recursive call: reuse the PTF already on the stack (paper §5.4).
	for i := len(a.stack) - 1; i >= 0; i-- {
		if a.stack[i].ptf.Proc == proc {
			return a.applyRecursive(f, nd, a.stack[i].ptf, args, multi, withRet)
		}
	}
	ptf, pmap, needVisit := a.getPTF(f, nd, proc, args)
	f.ptf.siteUsed.put(siteKey{nd, proc}, ptf)
	f.ptf.callEdges.put(siteKey{nd, proc}, ptf)
	if a.collecting != nil {
		// Solution-collection pass: descend once into every reachable
		// PTF so its call sites re-derive their parameter bindings.
		needVisit = !a.collecting[ptf]
		a.collecting[ptf] = true
	}
	cf := a.carveFrame()
	cf.ptf, cf.caller, cf.callNode = ptf, f, nd
	cf.args, cf.pmap = args, pmap
	// Formals come from the PTF's own flow graph's declaration: after an
	// incremental graft a kept procedure's local symbols are the
	// baseline's, while the program's FuncDecl is the edited one.
	a.recordFormalBindings(cf, ptf.Proc.Fn, args)
	if needVisit || (!ptf.exitReached && a.collecting == nil) {
		a.visit(cf)
	}
	// Register this call site after the visit (bumps during the
	// callee's own evaluation need not re-dirty it: the fresh summary
	// is applied right below) so later callee growth re-dirties it.
	a.recordCaller(ptf, f.ptf, nd)
	if !ptf.exitReached {
		return false
	}
	if a.incremental && a.collecting != nil {
		// Incremental solution collection: the fixpoint is converged, so
		// translating the callee's summary into the caller cannot change
		// any record, and the bindings the solution needs were recorded
		// above (matchPTFInto / recordFormalBindings). Cold runs go
		// through the apply memo below, which skips what the fixpoint
		// already applied and applies the rest as the cross-check.
		f.ptf.deps.put(ptf, ptf.version)
		return false
	}
	sk := siteKey{nd, proc}
	fp := a.applyFingerprint(f, nd, cf, multi, withRet)
	m, okm := f.ptf.applied.get(sk)
	if okm && m.ptf == ptf && m.version == ptf.version && m.fp == fp && m.holds(f.ptf.Pts) {
		// This exact summary version was already translated into the
		// caller under identical bindings, and every destination still
		// reads as it did after: repeating it cannot change anything.
		a.stats.AppliesSkipped++
		f.ptf.deps.put(ptf, ptf.version)
		return false
	}
	changed := a.applySummary(f, nd, cf, multi, withRet)
	// The memo's destination list reuses the previous memo's backing.
	dsts := append(m.dsts[:0], a.dstBuf...)
	for i := range dsts {
		if dsts[i].weak {
			dsts[i].gen = f.ptf.Pts.Gen(dsts[i].loc)
		}
	}
	f.ptf.applied.put(sk, appliedMemo{ptf: ptf, version: ptf.version, fp: fp, dsts: dsts})
	f.ptf.deps.put(ptf, ptf.version)
	return changed
}

// applyFingerprint digests everything the effect of applySummary
// depends on besides the callee's summary version: the parameter
// bindings, the process-wide subsumption generation, the strong-update
// context, and the return destination as the caller currently evaluates
// it. Bindings combine order-independently, so pmap iteration order is
// irrelevant.
func (a *Analysis) applyFingerprint(f *frame, nd *cfg.Node, cf *frame, multi, withRet bool) uint64 {
	h := memmod.SubsumeGen()*0x9e3779b97f4a7c15 + 0x517cc1b727220a95
	if multi {
		h ^= 0xa5a5
	}
	if f.multiTarget {
		h ^= 0x5a5a0000
	}
	for p, v := range cf.pmap {
		h ^= (memmod.Loc(p, 0, 0).Fingerprint() + 0x9e3779b97f4a7c15) * (v.Fingerprint() | 1)
	}
	if withRet && nd.RetDst != nil {
		h ^= a.evalExpr(f, nd.RetDst, nd).WithoutNull().Fingerprint() * 0x2545f4914f6cdd1d
	}
	return h
}

// applyRecursive reuses the on-stack PTF for a recursive call, merging
// this site's aliases into the PTF's (recursive) input domain and
// deferring if no summary exists yet.
func (a *Analysis) applyRecursive(f *frame, nd *cfg.Node, ptf *PTF, args []memmod.ValueSet, multi, withRet bool) bool {
	ptf.recursive = true
	// Record the edge for call-graph/MOD-REF clients; deliberately NOT
	// in siteUsed, which would perturb the engine's PTF-reuse policy.
	f.ptf.callEdges.put(siteKey{nd, ptf.Proc}, ptf)
	pmap := a.replayBindMerge(f, nd, ptf, args, true)
	cf := a.carveFrame()
	cf.ptf, cf.caller, cf.callNode = ptf, f, nd
	cf.args, cf.pmap = args, pmap
	a.recordFormalBindings(cf, ptf.Proc.Fn, args)
	// Register before the deferral check: the cycle head's exit-reached
	// version bump must re-dirty this deferring site (§5.4).
	a.recordCaller(ptf, f.ptf, nd)
	if !ptf.exitReached {
		// First iteration around the cycle: defer (paper §5.4), and
		// record a forced-stale dependency so this PTF is revisited
		// once the cycle head has a summary.
		if f.ptf != ptf {
			f.ptf.deps.put(ptf, -1)
		}
		return false
	}
	changed := a.applySummary(f, nd, cf, multi, withRet)
	if f.ptf != ptf {
		f.ptf.deps.put(ptf, ptf.version)
	}
	return changed
}

// getPTF finds or creates a PTF applicable at this call site (paper
// Figure 13), returning its parameter mapping and whether the procedure
// must be (re)visited.
func (a *Analysis) getPTF(f *frame, nd *cfg.Node, proc *cfg.Proc, args []memmod.ValueSet) (*PTF, map[*memmod.Block]memmod.ValueSet, bool) {
	list := a.ptfs[proc]
	switch a.opts.Reuse {
	case SingleSummary:
		if len(list) > 0 {
			// Merge every context into the one summary: actual input
			// values accumulate in the entry records, making the
			// summary genuinely context-insensitive.
			p := list[0]
			p.recursive = true
			return p, a.replayBindMerge(f, nd, p, args, true), true
		}
	case NeverReuse:
		for _, p := range list {
			if p.homeNode == nd && p.homePTF == f.ptf {
				return p, a.replayBind(f, nd, p, args), true
			}
		}
		if a.opts.MaxTotalPTFs > 0 && a.numPTFs >= a.opts.MaxTotalPTFs && len(list) > 0 {
			// Context explosion: merge further contexts (the measured
			// outcome of the Emami discipline on recursive programs).
			a.capped = true
			p := list[len(list)-1]
			p.recursive = true
			return p, a.replayBind(f, nd, p, args), true
		}
	default: // ReuseByAliasPattern
		for _, p := range list {
			if pmap, needVisit, ok := a.matchPTF(f, nd, p, args); ok {
				if !needVisit {
					if a.track {
						// Worklist mode: the PTF's own dirty set says
						// exactly whether anything inside needs work.
						needVisit = p.dirtyN > 0
					} else if p.staleDeps() {
						needVisit = true
					}
				}
				return p, pmap, needVisit
			}
		}
		if a.opts.CombineOffsets {
			// §7 optimization: accept a PTF whose alias structure
			// matches even though offsets/strides differ, merging the
			// differing bindings (slight context-sensitivity loss).
			for _, p := range list {
				if pmap, _, ok := a.matchPTFDrift(f, nd, p, args); ok {
					return p, pmap, true
				}
			}
		}
		// No match: reuse the PTF originally created at this very
		// context (intermediate iteration values), updating its
		// domain instead of allocating another (paper §5.2).
		for _, p := range list {
			if p.homeNode == nd && p.homePTF == f.ptf {
				return p, a.replayBind(f, nd, p, args), true
			}
		}
		// Same rule for a site that previously resolved to a PTF it did
		// not create: its inputs are intermediate iteration values, so
		// update that PTF's domain rather than allocating a duplicate
		// for a transient state. Without this the set of PTFs depends
		// on evaluation order. A kept caller's latch may still name an
		// unadopted graft survivor; adopt it before handing it out, or
		// the engine would evaluate an instance outside the live
		// population.
		if p, _ := f.ptf.siteUsed.get(siteKey{nd, proc}); p != nil {
			if a.keptCache != nil {
				a.adoptKept(proc, p, f.ptf, nd)
			}
			return p, a.replayBind(f, nd, p, args), true
		}
		if (a.opts.MaxPTFs > 0 && len(list) >= a.opts.MaxPTFs) ||
			(a.opts.MaxTotalPTFs > 0 && a.numPTFs >= a.opts.MaxTotalPTFs && len(list) > 0) {
			// Generalize rather than specialize further (paper §8).
			a.capped = true
			p := list[len(list)-1]
			p.recursive = true
			return p, a.replayBind(f, nd, p, args), true
		}
		// Where a cold run would now create a fresh instance, an
		// incremental run first consults the graft's adoption cache: a
		// surviving baseline instance whose input domain matches this
		// pattern IS the instance a cold run would build here, already
		// converged. Checked after the reuse rules above so transient
		// iteration patterns extend this site's own instance exactly as
		// they would cold, instead of adopting a spurious duplicate.
		if a.keptCache != nil {
			for _, p := range a.keptCache[proc] {
				if pmap, needVisit, ok := a.matchPTF(f, nd, p, args); ok {
					a.adoptKept(proc, p, f.ptf, nd)
					if !needVisit {
						if a.track {
							needVisit = p.dirtyN > 0
						} else if p.staleDeps() {
							needVisit = true
						}
					}
					return p, pmap, needVisit
				}
			}
		}
	}
	p := a.newPTF(proc, nd, f.ptf)
	return p, make(map[*memmod.Block]memmod.ValueSet), true
}

// matchPTF tests whether ptf applies at this call site by replaying its
// initial points-to entries in creation order (paper §5.2), building the
// parameter mapping as it goes. It fails on the first alias or
// function-pointer mismatch.
func (a *Analysis) matchPTF(f *frame, nd *cfg.Node, ptf *PTF, args []memmod.ValueSet) (pmapOut map[*memmod.Block]memmod.ValueSet, needVisit, ok bool) {
	return a.matchPTFMode(f, nd, ptf, args, false)
}

// matchPTFDrift is matchPTF with offset/stride drift permitted: values
// at the same base blocks but different positions still match, and the
// parameter bindings merge both positions (paper §7's suggested
// combining of offset-variant PTFs).
func (a *Analysis) matchPTFDrift(f *frame, nd *cfg.Node, ptf *PTF, args []memmod.ValueSet) (pmapOut map[*memmod.Block]memmod.ValueSet, needVisit, ok bool) {
	return a.matchPTFMode(f, nd, ptf, args, true)
}

func (a *Analysis) matchPTFMode(f *frame, nd *cfg.Node, ptf *PTF, args []memmod.ValueSet, drift bool) (pmapOut map[*memmod.Block]memmod.ValueSet, needVisit, ok bool) {
	// Trial bindings go into a pooled map: most candidate PTFs fail to
	// match, and the map would otherwise be garbage every time. On
	// success the map is handed to the frame and leaves the pool.
	pmap := a.pmapPool
	if pmap == nil {
		pmap = make(map[*memmod.Block]memmod.ValueSet)
	}
	a.pmapPool = nil
	pmapOut, needVisit, ok = a.matchPTFInto(f, nd, ptf, args, drift, pmap)
	if !ok {
		clear(pmap)
		a.pmapPool = pmap
	}
	return pmapOut, needVisit, ok
}

func (a *Analysis) matchPTFInto(f *frame, nd *cfg.Node, ptf *PTF, args []memmod.ValueSet, drift bool, pmap map[*memmod.Block]memmod.ValueSet) (pmapOut map[*memmod.Block]memmod.ValueSet, needVisit, ok bool) {
	cf := a.carveFrame()
	cf.ptf, cf.caller, cf.callNode = ptf, f, nd
	cf.args, cf.pmap = args, pmap
	// Entries recorded as "points to nothing" whose actuals are now
	// non-empty are upgraded to fresh parameters — an input VALUE
	// difference, not an alias difference, so the PTF still applies
	// (it just needs extending, like new pointer locations in §5.2).
	// Upgrades mutate the PTF, so they are deferred until the whole
	// match succeeds.
	type upgrade struct {
		entry   int
		actuals memmod.ValueSet
	}
	var upgrades []upgrade
	for i := 0; i < len(ptf.initial); i++ {
		e := ptf.initial[i]
		switch e.kind {
		case globalRefEntry:
			p := e.param.Representative()
			actual := a.arena.Value1(a.globalLocIn(f, e.sym))
			if bound, ok := pmap[p]; ok {
				if !bound.Equal(actual) {
					return nil, false, false
				}
			} else {
				if a.aliasesExisting(pmap, actual, p) {
					return nil, false, false
				}
				pmap[p] = actual
				a.bindParamConcrete(p, actual)
			}
		case ptrInitEntry:
			actuals, ok := a.entryActuals(cf, e)
			if !ok {
				return nil, false, false
			}
			if e.valEmpty {
				if !actuals.IsEmpty() {
					if a.aliasesExisting(pmap, actuals, nil) {
						// The new values alias other inputs: a real
						// alias-pattern change; no reuse.
						return nil, false, false
					}
					upgrades = append(upgrades, upgrade{entry: i, actuals: actuals})
				}
				continue
			}
			val := e.val.Resolve()
			p := val.Base
			if bound, okb := pmap[p]; okb {
				var expected memmod.ValueSet
				if val.Stride != 0 {
					// Unknown placement: block-level comparison.
					if !blocksOverlap(bound, actuals) || !blocksCovered(bound, actuals) {
						return nil, false, false
					}
					continue
				}
				expected = a.arena.ShiftSet(bound, val.Off)
				if !expected.Equal(actuals) {
					if !drift || !blocksCovered(bound, actuals) {
						return nil, false, false
					}
					// Offset-only drift: merge the new positions.
					merged := pmap[p]
					a.arena.AddAll(&merged, a.arena.ShiftSet(actuals, -val.Off))
					pmap[p] = merged
					a.setNotUnique(p)
					a.bindParamConcrete(p, pmap[p])
				}
			} else {
				if actuals.IsEmpty() {
					return nil, false, false
				}
				if a.aliasesExisting(pmap, actuals, p) {
					return nil, false, false
				}
				if val.Stride != 0 {
					pmap[p] = actuals
				} else {
					pmap[p] = a.arena.ShiftSet(actuals, -val.Off)
				}
				a.bindParamConcrete(p, pmap[p])
			}
		}
	}
	// Function-pointer input values must match (paper §5.2).
	for p, want := range ptf.fpDomain {
		p = p.Representative()
		if _, ok := pmap[p]; !ok {
			continue
		}
		got := make(map[*cast.Symbol]bool)
		rf := a.carveFrame()
		rf.ptf, rf.caller, rf.callNode, rf.pmap = ptf, f, nd, pmap
		a.resolveFuncSyms(rf, memmod.Values(memmod.Loc(p, 0, 0)), got, nil, nil)
		if !sameSymSet(want, got) {
			return nil, false, false
		}
	}
	// Extend the PTF if the inputs contain pointers at locations that
	// were unknown when it was built (paper §5.2).
	needVisit = !ptf.exitReached
	for p, bound := range pmap {
		if p.Kind != memmod.ParamBlock {
			continue
		}
		if a.extendParamPtrLocs(p, bound) {
			needVisit = true
		}
		a.extendFuncPtrVals(p, bound)
	}
	// Apply deferred empty-entry upgrades now that the match holds.
	for _, up := range upgrades {
		e := &ptf.initial[up.entry]
		p := a.newParam(cf, hintFor(e.ptr), up.actuals)
		e.val = memmod.Loc(p, 0, 0)
		e.valEmpty = false
		ptf.Pts.Assign(e.ptr.Resolve(), memmod.Values(memmod.Loc(p, 0, 0)), ptf.Proc.Entry, false)
		a.bumpVersion(ptf)
		a.changed = true
		needVisit = true
	}
	return pmap, needVisit, true
}

// blocksCovered reports whether every base block of values appears in
// bound (ignoring positions).
func blocksCovered(bound, values memmod.ValueSet) bool {
	for _, v := range values.Locs() {
		found := false
		for _, b := range bound.Locs() {
			if b.Resolve().Base.Representative() == v.Resolve().Base.Representative() {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// aliasesExisting reports whether actuals share blocks with any binding
// other than p's (an alias pattern the PTF was not built for).
func (a *Analysis) aliasesExisting(pmap map[*memmod.Block]memmod.ValueSet, actuals memmod.ValueSet, p *memmod.Block) bool {
	for q, bound := range pmap {
		if q == p {
			continue
		}
		if blocksOverlap(bound, actuals) {
			return true
		}
	}
	return false
}

// entryActuals computes the current-context actual values of an input
// pointer named by a ptrInit entry, mirroring getInitial's resolution:
// without null, which never enters a callee.
func (a *Analysis) entryActuals(cf *frame, e initEntry) (memmod.ValueSet, bool) {
	v := e.ptr.Resolve()
	switch v.Base.Kind {
	case memmod.LocalBlock:
		idx := formalIndex(cf.ptf.Proc, v.Base.Sym)
		if idx < 0 {
			return memmod.ValueSet{}, true
		}
		if idx < len(cf.args) {
			return cf.args[idx].WithoutNull(), true
		}
		return memmod.ValueSet{}, true
	case memmod.ParamBlock:
		bound, ok := cf.pmap[v.Base.Representative()]
		if !ok {
			// The base parameter was not replayed yet: the entry
			// order guarantees it normally; treat as mismatch.
			return memmod.ValueSet{}, false
		}
		out := a.arena.NewSet()
		for _, b := range bound.Locs() {
			target := b.Shift(v.Off)
			if v.Stride != 0 {
				target = target.WithStride(v.Stride)
			}
			a.arena.AddAll(&out, a.evalContents(cf.caller, target, cf.callNode))
		}
		return out.WithoutNull(), true
	case memmod.GlobalBlock:
		return a.evalContents(cf.caller, v, cf.callNode).WithoutNull(), true
	}
	return memmod.ValueSet{}, true
}

// globalLocIn returns the representation of global sym in frame f's name
// space.
func (a *Analysis) globalLocIn(f *frame, sym *cast.Symbol) memmod.LocSet {
	if f.caller == nil {
		return memmod.Loc(a.globalBlock(sym), 0, 0)
	}
	return memmod.Loc(a.globalParam(f, sym), 0, 0)
}

// extendParamPtrLocs translates the caller-side pointer locations of the
// actuals into parameter space, extending the parameter's known pointer
// locations. Reports whether new locations were found.
func (a *Analysis) extendParamPtrLocs(p *memmod.Block, bound memmod.ValueSet) bool {
	extended := false
	for _, b := range bound.Locs() {
		b = b.Resolve()
		for _, l := range b.Base.PtrLocs() {
			var pl memmod.LocSet
			if b.Stride != 0 || l.Stride != 0 {
				pl = memmod.Loc(p, 0, 1)
			} else {
				pl = memmod.Loc(p, l.Off-b.Off, 0)
			}
			if p.AddPtrLoc(pl) {
				extended = true
			}
		}
	}
	if extended {
		// Dereferences through p may now see more locations.
		a.notifyWrite(p)
	}
	return extended
}

// extendFuncPtrVals accumulates the values bound to a function-pointer
// parameter and, when the set grows, re-dirties the call nodes that
// resolved targets through it. This is the write half of the dependency
// resolveFuncSyms registers: resolution chains run through frame-local
// pmaps, so a re-bind that brings a new function value would otherwise
// be invisible to the worklist engine and leave a stale fpDomain in the
// callee. Full passes re-walk everything, so tracking-off mode skips it.
func (a *Analysis) extendFuncPtrVals(p *memmod.Block, bound memmod.ValueSet) {
	p = p.Representative()
	if !a.track || !p.FuncPtr {
		return
	}
	if p.AddFnBound(bound) {
		a.notifyWrite(p)
	}
}

// setNotUnique marks a parameter as possibly standing for several
// locations at once, re-dirtying readers whose strong-update decisions
// depended on its uniqueness.
func (a *Analysis) setNotUnique(p *memmod.Block) {
	p = p.Representative()
	if p.NotUnique {
		return
	}
	p.NotUnique = true
	a.notifyWrite(p)
}

// replayBind rebinds every input-domain entry at this call site without
// failing: aliasing mismatches subsume parameters, and entries recorded
// as empty that now have values are upgraded to fresh parameters. Used
// for home-context updates, recursion and the merged-domain policies.
func (a *Analysis) replayBind(f *frame, nd *cfg.Node, ptf *PTF, args []memmod.ValueSet) map[*memmod.Block]memmod.ValueSet {
	return a.replayBindMerge(f, nd, ptf, args, false)
}

// replayBindMerge is replayBind with optional merging of the call site's
// actual input values into the PTF's entry records. Recursive calls
// require it (paper §5.4): the recursive PTF approximates multiple
// calling contexts, so values flowing in at recursive sites — expressed
// in the procedure's own name space — must be visible to reads of the
// inputs inside the cycle.
func (a *Analysis) replayBindMerge(f *frame, nd *cfg.Node, ptf *PTF, args []memmod.ValueSet, mergeRecords bool) map[*memmod.Block]memmod.ValueSet {
	pmap := make(map[*memmod.Block]memmod.ValueSet)
	cf := a.carveFrame()
	cf.ptf, cf.caller, cf.callNode = ptf, f, nd
	cf.args, cf.pmap = args, pmap
	for i := 0; i < len(ptf.initial); i++ {
		e := ptf.initial[i]
		switch e.kind {
		case globalRefEntry:
			p := e.param.Representative()
			actual := a.arena.Value1(a.globalLocIn(f, e.sym))
			if bound, ok := pmap[p]; ok {
				if a.arena.AddAll(&bound, actual) {
					pmap[p] = bound
				}
			} else {
				pmap[p] = actual
			}
			a.bindParamConcrete(p, pmap[p])
			a.extendFuncPtrVals(p, pmap[p])
		case ptrInitEntry:
			actuals, _ := a.entryActuals(cf, e)
			if e.valEmpty {
				if actuals.IsEmpty() {
					continue
				}
				// Upgrade: the pointer now has targets; give it a
				// parameter and grow the input domain.
				p := a.newParam(cf, hintFor(e.ptr), actuals)
				ptf.initial[i].val = memmod.Loc(p, 0, 0)
				ptf.initial[i].valEmpty = false
				ptf.Pts.Assign(e.ptr, a.arena.Value1(memmod.Loc(p, 0, 0)), ptf.Proc.Entry, false)
				a.bumpVersion(ptf)
				a.changed = true
				continue
			}
			val := e.val.Resolve()
			p := val.Base
			if bound, ok := pmap[p]; ok {
				add := actuals
				if val.Stride == 0 {
					add = a.arena.ShiftSet(actuals, -val.Off)
				}
				if a.arena.AddAll(&bound, add) {
					pmap[p] = bound
					a.setNotUnique(p)
				}
			} else {
				if val.Stride == 0 {
					pmap[p] = a.arena.ShiftSet(actuals, -val.Off)
				} else {
					pmap[p] = actuals.Clone()
				}
			}
			a.extendParamPtrLocs(p, pmap[p])
			a.bindParamConcrete(p, pmap[p])
			a.extendFuncPtrVals(p, pmap[p])
			if mergeRecords && !actuals.IsEmpty() {
				// Recursive call: the entry record of this input
				// pointer also covers the values arriving around the
				// cycle (they are already in this procedure's name
				// space, since the recursive caller is the procedure
				// itself).
				if ptf.Pts.Assign(e.ptr.Resolve(), actuals, ptf.Proc.Entry, false) {
					a.bumpVersion(ptf)
					a.changed = true
				}
			}
		}
	}
	// Bind any parameters not covered by entries (defensive).
	for _, p := range ptf.params {
		if p.Forwarded() != nil {
			continue
		}
		if _, ok := pmap[p]; !ok {
			pmap[p] = memmod.ValueSet{}
		}
	}
	return pmap
}

func sameSymSet(a, b map[*cast.Symbol]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for s := range a {
		if !b[s] {
			return false
		}
	}
	return true
}

// applySummary translates the callee's final points-to function back to
// the caller (paper §5.3).
func (a *Analysis) applySummary(f *frame, nd *cfg.Node, cf *frame, multi, withRet bool) bool {
	ptf := cf.ptf
	exit := ptf.Proc.Exit
	changed := false
	written := a.dstBuf[:0]
	// Accumulate all translated writes per caller destination before
	// asserting records: several callee locations may translate to the
	// same caller location, and their effects must merge (a strong
	// update survives only when exactly one definite write lands on a
	// precise destination). The accumulator is a reused per-context
	// scratch slice, linear-scanned: summaries write to a handful of
	// distinct destinations.
	pend := a.pendBuf[:0]
	for _, loc := range ptf.Pts.Locations() {
		loc = loc.Resolve()
		if loc.Base.Kind == memmod.RetvalBlock {
			continue // handled below
		}
		vals, found := ptf.Pts.LookupOut(loc, exit, nil)
		if !found {
			continue
		}
		// Skip locations the callee never modified (only the entry
		// initial record exists): translating them back is an
		// identity that only costs precision.
		if onlyInitialRecord(ptf, loc) {
			continue
		}
		dsts := a.translateLoc(cf, loc)
		if dsts.IsEmpty() {
			continue
		}
		tvals := a.translateVals(cf, vals)
		strongWrite := dominantStrongRecord(ptf, loc, exit) && !multi && dsts.Len() == 1
		for _, dl := range dsts.Locs() {
			pw := (*pendingWrite)(nil)
			for i := range pend {
				if pend[i].dl == dl {
					pw = &pend[i]
					break
				}
			}
			if pw == nil {
				pend = append(pend, pendingWrite{dl: dl, strong: true})
				pw = &pend[len(pend)-1]
				pw.vals = a.arena.NewSet()
			}
			pw.sources++
			a.arena.AddAll(&pw.vals, tvals)
			if !strongWrite || !dl.Precise() || f.multiTarget {
				pw.strong = false
			}
		}
	}
	for i := range pend {
		pw, dl := &pend[i], pend[i].dl
		a.registerRead(f, dl.Base, nd)
		strong := pw.strong && pw.sources == 1
		// pw.vals is scratch consumed exactly once: merge in place.
		merged := pw.vals
		if !strong {
			old, okOld := f.ptf.Pts.LookupIn(dl, nd, nil)
			if !okOld {
				old = a.getInitial(f, dl)
			}
			a.arena.AddAll(&merged, old)
		}
		if !merged.IsEmpty() {
			if dl.Base.AddPtrLoc(dl) {
				a.notifyWrite(dl.Base)
			}
		}
		if f.ptf.Pts.Assign(dl, merged, nd, strong) {
			changed = true
		}
		written = append(written, appliedDst{loc: dl, precise: dl.Precise(), weak: !strong})
	}
	a.pendBuf = pend[:0]
	// Return value.
	if withRet && nd.RetDst != nil {
		rloc := memmod.Loc(ptf.retval, 0, 0)
		if rvals, ok := ptf.Pts.LookupOut(rloc, exit, nil); ok {
			tvals := a.translateVals(cf, rvals)
			dsts := a.evalExpr(f, nd.RetDst, nd).WithoutNull()
			for _, dl := range dsts.Locs() {
				a.registerRead(f, dl.Base, nd)
				strong := dsts.Len() == 1 && dl.Precise() && !multi && !f.multiTarget
				merged := a.arena.CloneSet(tvals)
				if !strong {
					old, okOld := f.ptf.Pts.LookupIn(dl, nd, nil)
					if !okOld {
						old = a.getInitial(f, dl)
					}
					a.arena.AddAll(&merged, old)
				}
				if !merged.IsEmpty() {
					if dl.Base.AddPtrLoc(dl) {
						a.notifyWrite(dl.Base)
					}
				}
				if f.ptf.Pts.Assign(dl, merged, nd, strong) {
					changed = true
				}
				written = append(written, appliedDst{loc: dl, precise: dl.Precise(), weak: !strong})
			}
		}
	}
	a.dstBuf = written
	return changed
}

// onlyInitialRecord reports whether loc's only record is its initial
// value at the procedure entry.
func onlyInitialRecord(ptf *PTF, loc memmod.LocSet) bool {
	recs := ptf.Pts.Records(loc)
	return len(recs) == 1 && recs[0].Node == ptf.Proc.Entry && !recs[0].Strong
}

// dominantStrongRecord reports whether the exit-visible record of loc is
// a strong update dominating the exit (a definite write on every path).
func dominantStrongRecord(ptf *PTF, loc memmod.LocSet, exit *cfg.Node) bool {
	var visNode *cfg.Node
	visStrong := false
	for _, r := range ptf.Pts.Records(loc) {
		if !r.Node.Dominates(exit) {
			continue
		}
		if visNode == nil || visNode.Dominates(r.Node) {
			visNode, visStrong = r.Node, r.Strong
		}
	}
	return visNode != nil && visStrong
}

// pendingWrite accumulates one caller destination's translated callee
// writes inside applySummary.
type pendingWrite struct {
	dl      memmod.LocSet
	vals    memmod.ValueSet
	strong  bool
	sources int
}

// translateLoc maps a callee-name-space location to caller locations.
func (a *Analysis) translateLoc(cf *frame, loc memmod.LocSet) memmod.ValueSet {
	loc = loc.Resolve()
	out := a.arena.NewSet()
	switch loc.Base.Kind {
	case memmod.LocalBlock, memmod.RetvalBlock:
		// Callee locals do not exist in the caller (paper §5.3).
	case memmod.ParamBlock:
		bound, ok := cf.pmap[loc.Base.Representative()]
		if !ok {
			return out
		}
		for _, b := range bound.Locs() {
			t := b.Shift(loc.Off)
			if loc.Stride != 0 {
				t = t.WithStride(loc.Stride)
			}
			out.Add(t)
		}
	default:
		out.Add(loc)
	}
	return out
}

// translateVals maps callee values to caller values.
func (a *Analysis) translateVals(cf *frame, vals memmod.ValueSet) memmod.ValueSet {
	out := a.arena.NewSet()
	for _, v := range vals.Locs() {
		a.arena.AddAll(&out, a.translateLoc(cf, v))
	}
	return out
}

// staleDeps reports whether any callee summary applied inside this PTF
// has grown since (directly or transitively); the PTF must then be
// revisited so the growth reaches its own records.
func (p *PTF) staleDeps() bool {
	return p.staleDepsRec(make(map[*PTF]bool))
}

func (p *PTF) staleDepsRec(vis map[*PTF]bool) bool {
	if vis[p] {
		return false
	}
	vis[p] = true
	stale := false
	p.deps.each(func(dep *PTF, v int) bool {
		if dep.version != v || dep.staleDepsRec(vis) {
			stale = true
			return false
		}
		return true
	})
	return stale
}
