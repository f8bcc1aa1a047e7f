package analysis

import (
	"time"

	"wlpa/internal/cfg"
	"wlpa/internal/memmod"
)

// visit evaluates f's procedure with f on top of the activation stack.
// The slot is cleared on the way out: a frame left in the stack's
// backing array would pin its caller chain and the arena chunks its
// bindings point into for as long as the Analysis lives.
func (a *Analysis) visit(f *frame) {
	a.stack = append(a.stack, f)
	a.evalProc(f)
	a.stack[len(a.stack)-1] = nil
	a.stack = a.stack[:len(a.stack)-1]
}

// evalProc evaluates a procedure instance until its points-to function
// stops changing (paper Figure 8). Nodes are visited in reverse
// postorder and never before one of their predecessors (§4.1). The
// worklist engine seeds the iteration from the PTF's dirty nodes; the
// full engine re-evaluates every node per sweep.
func (a *Analysis) evalProc(f *frame) {
	if a.collecting != nil {
		a.collectVisits++
	}
	if a.track {
		a.evalProcDirty(f)
	} else {
		a.evalProcFull(f)
	}
}

// evalProcFull is the pre-worklist engine: sweep every node repeatedly
// until no fact changes (kept as the ForceFullPasses cross-check).
//
// The solution-collection pass runs it too, over the converged
// fixpoint, where one reverse-postorder sweep evaluates every reachable
// node (a node's tree predecessor precedes it) against records that are
// already final. So a collection visit stops after a sweep that left
// its PTF's version unchanged (no fact grew, the exit did not become
// reached, no input-domain entry was added): a second sweep would only
// repeat it, re-binding the same parameters and skipping the same
// memoized applications. A sweep that did change the PTF gets another,
// as in the fixpoint. In an incremental run only call nodes do work
// during collection — assignments and meets are no-ops on converged
// records — and its call sites re-derive their bindings and descend
// into callees not yet collected but skip the summary application
// altogether (callDefinedRet).
func (a *Analysis) evalProcFull(f *frame) {
	collecting := a.collecting != nil
	callsOnly := a.incremental && collecting
	f.evaluated = make([]bool, len(f.ptf.Proc.Nodes))
	for iter := 0; ; iter++ {
		if a.checkDeadline() {
			return
		}
		version := f.ptf.version
		// progress drives the local do-while loop: in the fixpoint it
		// includes nodes becoming evaluable, in collection it is whether
		// the sweep changed the PTF. The changed flag only tracks
		// genuine growth of points-to facts, which governs the top-level
		// fixpoint.
		progress := false
		for _, nd := range f.ptf.Proc.Nodes {
			if nd.Kind != cfg.EntryNode && !f.anyPredEvaluated(nd) {
				continue
			}
			if !f.evaluated[nd.ID] {
				f.evaluated[nd.ID] = true
				progress = true
			}
			if callsOnly && nd.Kind != cfg.CallNode {
				continue
			}
			if a.evalNode(f, nd) {
				progress = true
			}
		}
		if a.reachExit(f) {
			progress = true
		}
		if collecting {
			grew := f.ptf.version != version
			a.stats.CollectSweeps++
			if grew {
				a.stats.CollectGrowths++
			}
			progress = grew
		}
		if !progress {
			return
		}
		if iter > 1000 {
			// Safety valve; analysis of a single procedure should
			// converge in a handful of iterations.
			return
		}
	}
}

// evalProcDirty is the worklist engine: only nodes marked dirty — the
// entry on creation, successors of first-time evaluations (frontier
// expansion), φ insertions, and nodes whose registered reads or callee
// summaries changed — are re-evaluated, in reverse postorder. The
// evaluated set persists on the PTF across visits, so a revisit touches
// only the dirty seed and whatever its changes reach.
func (a *Analysis) evalProcDirty(f *frame) {
	p := f.ptf
	f.evaluated = p.evaluated
	for iter := 0; p.dirtyN > 0; iter++ {
		if a.checkDeadline() {
			return
		}
		progress := false
		for _, nd := range p.Proc.Nodes {
			if !p.dirty[nd.ID] {
				continue
			}
			if nd.Kind != cfg.EntryNode && !f.anyPredEvaluated(nd) {
				// Not evaluable yet; stays dirty for a later sweep.
				continue
			}
			p.dirty[nd.ID] = false
			p.dirtyN--
			first := !f.evaluated[nd.ID]
			if first {
				f.evaluated[nd.ID] = true
			}
			progress = true
			a.evalNode(f, nd)
			if first {
				for _, s := range nd.Succs {
					a.markDirty(p, s)
				}
			}
		}
		if a.reachExit(f) {
			progress = true
		}
		if !progress || iter > 1000 {
			break
		}
	}
	// Drop unevaluable residue (dirty nodes none of whose predecessors
	// were ever evaluated — unreachable under the current facts): they
	// cannot fire, and leaving them would make the PTF look permanently
	// busy to the quiescence check and the caller cascade.
	for i, d := range p.dirty {
		if !d {
			continue
		}
		if nd := p.Proc.Nodes[i]; nd.Kind != cfg.EntryNode && !f.anyPredEvaluated(nd) {
			p.dirty[i] = false
			p.dirtyN--
		}
	}
}

// checkDeadline reports (and latches) that the wall-clock budget ran out.
func (a *Analysis) checkDeadline() bool {
	if !a.timedOut && !a.deadline.IsZero() && time.Now().After(a.deadline) {
		a.timedOut = true
	}
	return a.timedOut
}

// evalNode evaluates one flow node; when its facts grow, the PTF's
// summary version is bumped so dependents revisit. Reports the growth.
func (a *Analysis) evalNode(f *frame, nd *cfg.Node) bool {
	a.stats.NodesEvaluated++
	factChanged := false
	switch nd.Kind {
	case cfg.MeetNode, cfg.ExitNode:
		factChanged = a.evalMeet(f, nd)
	case cfg.AssignNode:
		factChanged = a.evalAssign(f, nd)
	case cfg.CallNode:
		factChanged = a.evalCall(f, nd)
	}
	if factChanged {
		a.changed = true
		a.bumpVersion(f.ptf)
	}
	return factChanged
}

// reachExit marks the PTF's exit reached the first time the sweep
// evaluates it (a summary now exists); reports the transition.
func (a *Analysis) reachExit(f *frame) bool {
	if !f.evaluated[f.ptf.Proc.Exit.ID] || f.ptf.exitReached {
		return false
	}
	f.ptf.exitReached = true
	a.changed = true
	a.bumpVersion(f.ptf)
	return true
}

func (f *frame) anyPredEvaluated(nd *cfg.Node) bool {
	for _, p := range nd.Preds {
		if f.evaluated[p.ID] {
			return true
		}
	}
	return false
}

// evalMeet evaluates the φ-functions of a meet node (paper Figure 9).
func (a *Analysis) evalMeet(f *frame, nd *cfg.Node) bool {
	changed := false
	for _, loc := range f.ptf.Pts.PhiLocs(nd) {
		a.registerRead(f, loc.Base, nd)
		srcs := a.arena.NewSet()
		for _, pred := range nd.Preds {
			if !f.evaluated[pred.ID] {
				continue
			}
			vals, found := f.ptf.Pts.LookupOut(loc, pred, nil)
			if !found {
				vals = a.getInitial(f, loc)
			}
			a.arena.AddAll(&srcs, vals)
		}
		if f.ptf.Pts.AssignPhi(loc, srcs, nd) {
			changed = true
		}
	}
	return changed
}

// evalContents returns the pointer values stored at location v as seen
// flowing into node nd (paper Figure 10, EvalDeref): all overlapping
// locations containing pointers contribute, bounded by the most recent
// strong update when v is a unique location.
func (a *Analysis) evalContents(f *frame, v memmod.LocSet, nd *cfg.Node) memmod.ValueSet {
	v = v.Resolve()
	if v.Base.Kind == memmod.NullBlock {
		// The null pseudo-location has no contents; dereferencing it is
		// an error the checkers report, not a source of values.
		return memmod.ValueSet{}
	}
	// Every location considered below shares v's base block, so one
	// registration covers the whole dereference.
	a.registerRead(f, v.Base, nd)
	var barrier *cfg.Node
	if v.Precise() {
		barrier = f.ptf.Pts.FindStrongUpdate(v, nd)
	}
	result := a.arena.NewSet()
	// seen is a linear-scan scratch carved per call (getInitial can
	// re-enter evalContents on the caller frame, so it must not be a
	// shared buffer).
	seen := a.arena.Carve(4)
	consider := func(l memmod.LocSet) {
		l = l.Resolve()
		for _, s := range seen {
			if s == l {
				return
			}
		}
		if !l.Overlaps(v) {
			return
		}
		seen = append(seen, l)
		vals, found := f.ptf.Pts.LookupIn(l, nd, barrier)
		if !found {
			vals = a.getInitial(f, l)
		}
		a.arena.AddAll(&result, vals)
	}
	consider(v)
	for _, l := range v.Base.PtrLocs() {
		consider(l)
	}
	return result
}

// evalExpr evaluates an IR expression to the set of locations it denotes
// (for destination expressions) or the pointer values it produces (for
// source expressions) — in points-to form the two coincide.
func (a *Analysis) evalExpr(f *frame, e *cfg.Expr, nd *cfg.Node) memmod.ValueSet {
	var out memmod.ValueSet
	if e == nil {
		return out
	}
	out = a.arena.NewSet()
	for _, t := range e.Terms {
		base := a.arena.NewSet()
		switch t.Kind {
		case cfg.TermVar:
			if l := a.varBlockLoc(f, t.Sym, 0, 0); l.Base != nil {
				base.Add(l)
			}
		case cfg.TermFunc:
			base.Add(memmod.Loc(a.funcBlock(t.Sym), 0, 0))
		case cfg.TermStr:
			base.Add(memmod.Loc(a.strBlock(t.StrID, t.StrVal), 0, 0))
		case cfg.TermDeref:
			ptrs := a.evalExpr(f, t.Base, nd)
			for _, pl := range ptrs.Locs() {
				a.arena.AddAll(&base, a.evalContents(f, pl, nd))
			}
		case cfg.TermNull:
			base.Add(memmod.Loc(a.nullBlock, 0, 0))
		}
		if t.Off != 0 {
			base = a.arena.ShiftSet(base, t.Off)
		}
		if t.Stride != 0 {
			base = a.arena.StrideSet(base, t.Stride)
		}
		a.arena.AddAll(&out, base)
	}
	return out
}

// evalAssign evaluates a pointer-form assignment (paper Figure 11).
func (a *Analysis) evalAssign(f *frame, nd *cfg.Node) bool {
	dsts := a.evalExpr(f, nd.Dst, nd).WithoutNull()
	if dsts.IsEmpty() {
		// Destination locations unknown yet: defer (paper §4.1).
		return false
	}
	if nd.Aggregate {
		return a.evalAggregateCopy(f, nd, dsts)
	}
	srcs := a.evalExpr(f, nd.Src, nd)
	changed := false
	strongOK := dsts.Len() == 1 && dsts.Locs()[0].Precise() && !f.multiTarget
	for _, dst := range dsts.Locs() {
		// The outcome depends on the destination's records (weak-update
		// merge) and uniqueness (strong-update eligibility).
		a.registerRead(f, dst.Base, nd)
		newSrcs := a.arena.CloneSet(srcs)
		strong := strongOK
		if !strong {
			// Weak update: the destination retains its old values.
			old, found := f.ptf.Pts.LookupIn(dst, nd, nil)
			if !found {
				old = a.getInitial(f, dst)
			}
			a.arena.AddAll(&newSrcs, old)
		}
		if !newSrcs.IsEmpty() {
			if dst.Base.AddPtrLoc(dst) {
				a.notifyWrite(dst.Base)
			}
		}
		if f.ptf.Pts.Assign(dst, newSrcs, nd, strong) {
			changed = true
		}
	}
	return changed
}

// evalAggregateCopy copies the pointer contents of the source objects to
// the destination objects (paper §4.4: aggregate assignments copy all
// pointer fields at their offsets).
func (a *Analysis) evalAggregateCopy(f *frame, nd *cfg.Node, dsts memmod.ValueSet) bool {
	srcLocs := a.evalExpr(f, nd.Src, nd)
	changed := false
	for _, src := range srcLocs.Locs() {
		src = src.Resolve()
		a.registerRead(f, src.Base, nd)
		for _, pl := range src.Base.PtrLocs() {
			// Field offset of the pointer within the source object.
			rel := pl.Off - src.Off
			if nd.Size > 0 && (rel < 0 || rel >= nd.Size) && pl.Stride == 0 && src.Stride == 0 {
				continue
			}
			vals, found := f.ptf.Pts.LookupIn(pl, nd, nil)
			if !found {
				vals = a.getInitial(f, pl)
			}
			if vals.IsEmpty() {
				continue
			}
			for _, dst := range dsts.Locs() {
				target := dst.Shift(rel)
				if src.Stride != 0 || pl.Stride != 0 {
					target = dst.Unknown()
				}
				a.registerRead(f, target.Base, nd)
				// Aggregate copies are always weak updates.
				old, f2 := f.ptf.Pts.LookupIn(target, nd, nil)
				if !f2 {
					old = a.getInitial(f, target)
				}
				merged := a.arena.CloneSet(vals)
				a.arena.AddAll(&merged, old)
				if target.Base.AddPtrLoc(target) {
					a.notifyWrite(target.Base)
				}
				if f.ptf.Pts.Assign(target, merged, nd, false) {
					changed = true
				}
			}
		}
	}
	return changed
}
