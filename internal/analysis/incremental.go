package analysis

// Incremental re-analysis: graft the surviving converged state of a
// previous run onto an edited program, so that Run reconverges only the
// procedures the edit actually dirtied (and their transitive callers)
// instead of the whole program.
//
// The unit of survival is the PTF. A procedure is *clean* when it exists
// in both programs with an identical closure IR hash (its own flow graph
// plus everything it can transitively call — see internal/irhash); every
// PTF of a clean procedure survives with its converged points-to
// records, input domain, dependency edges and memoized summary
// applications intact. Survival is demand-driven: survivors wait in a
// side cache, and getPTF adopts one into the live population only when
// a call site's input alias pattern matches it — the moment a cold run
// would have created that instance. Survivors whose pattern never
// re-arises (the edit changed what flows into the callee) stay cached
// and invisible, so the final PTF population is exactly the one demand
// builds, as in a cold run. Dirty and new procedures start with no
// PTFs; their instances are created from scratch at their call sites.
//
// The grafted run is canonicalized on the *edited* program: a.prog is
// the edited program verbatim, and the kept flow graphs (plus the
// shared block namespaces and the kept PTFs' function-pointer domains)
// are rewired from the baseline's symbol objects onto the edited ones.
// Canonicalizing the other way — keeping baseline symbols and stitching
// a hybrid program — leaves the dirty procedures' ASTs referencing
// symbols the program no longer declares, which silently splits blocks
// in anything that re-derives state from the AST (Result.Check, the
// snapshot's query surface).
//
// Worklist seeding is implicit in the kept state: kept PTFs keep their
// registered reader entries, so when a re-analyzed dirty procedure
// writes a shared block, notifyWrite re-dirties exactly the kept nodes
// that read it, and the markDirty caller cascade carries the dirt up to
// main. Nothing else needs to be scheduled.
//
// Nothing serializable is involved: PTF state is a web of pointers into
// the run's intern table and block graph, and LocIDs die with the run
// (DESIGN.md). The baseline Analysis is therefore *consumed* — mutated
// in place into the new run — and must not be queried afterwards.

import (
	"fmt"

	"wlpa/internal/cast"
	"wlpa/internal/cfg"
	"wlpa/internal/memmod"
	"wlpa/internal/sem"
)

// IncrementalStats reports what an incremental graft kept and dropped.
type IncrementalStats struct {
	// CleanProcs / DirtyProcs partition the edited program's defined
	// functions by closure-hash survival.
	CleanProcs int
	DirtyProcs int
	// KeptPTFs counts baseline PTF instances stashed in the adoption
	// cache (how many restored is demand-driven — see RestoredPTFs);
	// DroppedPTFs counts instances discarded outright (dirty
	// procedures' instances, plus any kept-procedure instance entangled
	// with a dropped one).
	KeptPTFs    int
	DroppedPTFs int
}

// PrepareIncremental grafts this converged analysis onto an edited
// program. clean names the procedures whose closure IR hashes are
// unchanged (the caller diffs irhash records); editedProcs are the flow
// graphs of the edited program's functions. On success the receiver is
// ready for Run, which reconverges from the kept state. On error the
// receiver is unmodified and the caller should fall back to a cold run.
func (a *Analysis) PrepareIncremental(edited *sem.Program, editedProcs map[*cast.FuncDecl]*cfg.Proc, clean map[string]bool) (*IncrementalStats, error) {
	switch {
	case !a.track:
		return nil, &Error{Msg: "incremental: baseline did not use the worklist engine"}
	case a.mainPTF == nil:
		return nil, &Error{Msg: "incremental: baseline has not converged"}
	case a.capped || a.timedOut:
		return nil, &Error{Msg: "incremental: baseline was capped or timed out"}
	case edited.Main == nil:
		return nil, &Error{Msg: "incremental: edited program has no main"}
	}

	// Map baseline symbols to their edited identities. Globals must
	// match by position (the caller's globals-digest gate guarantees
	// it); matching by object rather than name keeps equally named
	// static locals distinct. Baseline symbols with no edited
	// counterpart (a deleted function) stay unmapped; their blocks keep
	// the old identity, which nothing in the edited program can name.
	if len(edited.Globals) != len(a.prog.Globals) {
		return nil, &Error{Msg: "incremental: global sets differ"}
	}
	symNew := make(map[*cast.Symbol]*cast.Symbol, len(edited.Globals)+len(edited.Funcs))
	for i, bg := range a.prog.Globals {
		g := edited.Globals[i]
		if g.Name != bg.Name {
			return nil, &Error{Msg: fmt.Sprintf("incremental: global %d is %s in the edit, %s in the baseline", i, g.Name, bg.Name)}
		}
		symNew[bg] = g
	}
	for name, bs := range a.prog.Externs {
		if s := edited.Externs[name]; s != nil {
			symNew[bs] = s
		}
	}
	for _, bfd := range a.prog.Funcs {
		if bfd.Sym == nil {
			continue
		}
		if efd := edited.FuncByName[bfd.Name]; efd != nil && efd.Sym != nil {
			symNew[bfd.Sym] = efd.Sym
		}
	}

	// Classify and validate first, mutating nothing: every error return
	// below must leave the baseline intact for the cold fallback.
	st := &IncrementalStats{}
	procs := make(map[*cast.FuncDecl]*cfg.Proc, len(edited.Funcs))
	keptProcs := make(map[*cfg.Proc]bool)
	var rewire []*cfg.Proc
	for _, fd := range edited.Funcs {
		if clean[fd.Name] {
			bfd := a.prog.FuncByName[fd.Name]
			var bp *cfg.Proc
			if bfd != nil {
				bp = a.procs[bfd]
			}
			if bp == nil {
				return nil, &Error{Msg: fmt.Sprintf("incremental: clean procedure %s missing from baseline", fd.Name)}
			}
			procs[fd] = bp
			keptProcs[bp] = true
			rewire = append(rewire, bp)
			st.CleanProcs++
			continue
		}
		ep := editedProcs[fd]
		if ep == nil {
			return nil, &Error{Msg: fmt.Sprintf("incremental: no flow graph for edited procedure %s", fd.Name)}
		}
		procs[fd] = ep
		st.DirtyProcs++
	}
	if procs[edited.Main] == nil {
		return nil, &Error{Msg: "incremental: edited main not among defined functions"}
	}

	// Commit point. Rewire the kept flow graphs onto the edited symbol
	// objects (locals stay with the baseline symbols — they are private
	// to the procedure, and the kept PTFs key their local blocks by
	// them), and rekey the shared block namespaces the same way so
	// clean and dirty procedures resolve one block per object.
	for _, bp := range rewire {
		rewireProc(bp, symNew)
	}
	rekeyBlocks(a.globalBlocks, symNew)
	rekeyBlocks(a.funcBlocks, symNew)
	// Heap blocks are keyed by source position. A dirty procedure's
	// positions may now hold other calls (a defined function where a
	// malloc was), so its sites are forgotten and come back only if the
	// re-analysis reaches an allocation there, as in a cold run. A
	// clean procedure's body, positions included, is unchanged.
	for _, bp := range a.procs {
		if keptProcs[bp] {
			continue
		}
		for _, nd := range bp.Nodes {
			if nd.Kind == cfg.CallNode {
				delete(a.heapBlocks, nd.Pos.String())
			}
		}
	}

	// Survivors: every PTF of a kept procedure, minus any instance
	// entangled with a dropped one. Because a clean procedure's closure
	// covers everything it can call, its call edges should only name
	// other clean procedures; the cascade below is a defensive
	// invariant, not an expected path.
	kept := make(map[*PTF]bool)
	total := 0
	for proc := range keptProcs {
		for _, p := range a.ptfs[proc] {
			kept[p] = true
		}
	}
	for _, l := range a.ptfs {
		total += len(l)
	}
	for changed := true; changed; {
		changed = false
		for p := range kept {
			if ptfRefsDropped(p, kept) {
				delete(kept, p)
				changed = true
			}
		}
	}
	st.KeptPTFs = len(kept)
	st.DroppedPTFs = total - len(kept)

	// Partition the survivors. A cold run's final PTF population is a
	// historical artifact of its convergence: sites latch an instance
	// created under a transient pattern and extend it, so the list can
	// hold duplicate-domain instances no fixpoint demand resolves to.
	// An instance whose creating context (the homePTF chain up to main)
	// survives is *restored* in baseline creation order — the edited
	// run never re-executes the creator's convergence history, and a
	// cold run of the edited program, executing the identical history,
	// reproduces exactly these instances, artifacts included. An
	// instance whose creator was dropped goes to the *adoption cache*
	// instead: the dirty cone re-executes its creation history from
	// scratch, and getPTF adopts the instance only at a call site whose
	// input pattern actually matches it — the moment a cold run would
	// have created it. Cache survivors nobody demands stay invisible,
	// exactly like the instances a cold run never creates.
	restored := make(map[*PTF]bool)
	for changed := true; changed; {
		changed = false
		for p := range kept {
			if restored[p] {
				continue
			}
			if p.homePTF == nil {
				if p == a.mainPTF {
					restored[p] = true
					changed = true
				}
				continue
			}
			if restored[p.homePTF] {
				restored[p] = true
				changed = true
			}
		}
	}

	// Scrub kept instances of state that points outside the survivor
	// set or at the finished run's evaluation machinery, and carry
	// their function-pointer domains over to the edited symbols.
	newPtfs := make(map[*cfg.Proc][]*PTF, len(procs))
	numRestored := 0
	cache := make(map[*cfg.Proc][]*PTF, len(keptProcs))
	for proc := range keptProcs {
		for _, p := range a.ptfs[proc] {
			if !kept[p] {
				continue
			}
			if p.homePTF != nil && !kept[p.homePTF] {
				p.homePTF, p.homeNode = nil, nil
			}
			live := p.callers[:0]
			for _, e := range p.callers {
				if kept[e.ptf] {
					live = append(live, e)
				}
			}
			p.callers = live
			for _, set := range p.fpDomain {
				rekeySymSet(set, symNew)
			}
			var gp assoc[*cast.Symbol, *memmod.Block]
			p.globalParams.each(func(sym *cast.Symbol, b *memmod.Block) bool {
				if ns := symNew[sym]; ns != nil {
					sym = ns
				}
				gp.put(sym, b)
				return true
			})
			p.globalParams = gp
			for i := range p.initial {
				if e := &p.initial[i]; e.sym != nil {
					if ns := symNew[e.sym]; ns != nil {
						e.sym = ns
					}
				}
			}
			if restored[p] {
				newPtfs[proc] = append(newPtfs[proc], p)
				numRestored++
			} else {
				cache[proc] = append(cache[proc], p)
			}
		}
	}

	// Reader registrations survive for every cached instance — a dirty
	// procedure's write to a shared block must re-dirty the kept nodes
	// that read it even before (or without) adoption, so that an
	// instance adopted later drains exactly the dirt it accumulated.
	// Free records survive too; sweepKept discards those of instances
	// that end the run unadopted.
	if a.readers != nil {
		old := a.readers
		a.readers = make(map[*memmod.Block]assoc[readerKey, struct{}], len(old))
		for b, rs := range old {
			rs.each(func(k readerKey, _ struct{}) bool {
				if kept[k.ptf] {
					a.addReader(b, k)
				}
				return true
			})
		}
	}
	for k := range a.frees {
		if !kept[k.ptf] {
			delete(a.frees, k)
		}
	}

	// The pointer-location caches of shared (global-family) blocks
	// accumulate entries from every context that ever wrote them,
	// including dropped ones. Reset them all and replay the restored
	// instances' entries; each cache survivor replays its own at
	// adoption (adoptKept), so a dirty procedure's dereference can
	// never resurrect a context the edited run does not actually
	// create. Param/local/retval caches belong to their (kept or new)
	// PTFs and need no reset: a kept parameter's cache can only name
	// entries its own records justify or that domain matching replays.
	for _, b := range a.globalBlocks {
		b.ResetPtrLocs()
	}
	for _, b := range a.funcBlocks {
		b.ResetPtrLocs()
	}
	for _, b := range a.strBlocks {
		b.ResetPtrLocs()
	}
	for _, b := range a.heapBlocks {
		b.ResetPtrLocs()
	}
	for _, l := range newPtfs {
		for _, p := range l {
			replayPtrLocs(p)
		}
	}

	// Install the edited program and reset the per-run machinery.
	a.prog = edited
	a.procs = procs
	a.ptfs = newPtfs
	a.numPTFs = numRestored
	a.keptCache = cache
	a.restoredPTFs = numRestored
	a.modref = nil
	a.collecting = nil
	a.capped = false
	a.timedOut = false
	a.stats = Stats{PTFsPerProc: make(map[string]int)}
	a.changed = false
	if a.mainPTF != nil && !kept[a.mainPTF] {
		a.mainPTF = nil
	}
	a.incremental = true
	return st, nil
}

// replayPtrLocs re-seeds the pointer-location caches of the blocks a
// restored instance's records cover, after the graft's global reset.
func replayPtrLocs(p *PTF) {
	for _, loc := range p.Pts.Locations() {
		for _, r := range p.Pts.Records(loc) {
			if r.Vals.IsEmpty() {
				continue
			}
			rl := loc.Resolve()
			rl.Base.AddPtrLoc(rl)
			break
		}
	}
}

// adoptKept moves a kept-cache instance into the live PTF list of its
// procedure: a call site's input pattern just matched it, which is
// exactly when a cold run would have created the instance — except
// this one arrives with its converged records, dependency edges and
// memoized summary applications intact. Its pointer-location cache
// entries are replayed now rather than at graft time, so shared blocks
// never advertise extents that only an unadopted (hence invisible)
// instance justifies. The checkers' context traces walk the home
// chain, so an instance keeps its creator as home only if the creator
// is live; one whose creator the graft dropped, or has not adopted, is
// homed at the adopting call site (homePTF, homeNode), where a cold run
// creates it. Reports whether p was in fact cached.
func (a *Analysis) adoptKept(proc *cfg.Proc, p *PTF, homePTF *PTF, homeNode *cfg.Node) bool {
	at := a.cachedAt(proc, p)
	if at < 0 {
		return false
	}
	l := a.keptCache[proc]
	a.keptCache[proc] = append(l[:at], l[at+1:]...)
	if p.homePTF == nil || a.cachedAt(p.homePTF.Proc, p.homePTF) >= 0 {
		p.homePTF, p.homeNode = homePTF, homeNode
	}
	a.ptfs[proc] = append(a.ptfs[proc], p)
	a.numPTFs++
	a.restoredPTFs++
	replayPtrLocs(p)
	return true
}

// cachedAt returns p's index in proc's adoption cache, or -1.
func (a *Analysis) cachedAt(proc *cfg.Proc, p *PTF) int {
	for i, q := range a.keptCache[proc] {
		if q == p {
			return i
		}
	}
	return -1
}

// sweepKept discards the residual side state of kept-cache instances
// that ended the run unadopted: no call site of the edited program
// demanded their alias pattern, so a cold run would never have created
// them and their free records must not surface in diagnostics. Run
// calls it after convergence.
func (a *Analysis) sweepKept() {
	orphaned := 0
	for _, l := range a.keptCache {
		orphaned += len(l)
	}
	if orphaned == 0 {
		return
	}
	orphan := make(map[*PTF]bool, orphaned)
	for _, l := range a.keptCache {
		for _, p := range l {
			orphan[p] = true
		}
	}
	for k := range a.frees {
		if orphan[k.ptf] {
			delete(a.frees, k)
		}
	}
}

// RestoredPTFs reports how many baseline instances the run actually
// adopted (valid after Run; adoption is demand-driven, so the count is
// not known at graft time).
func (a *Analysis) RestoredPTFs() int { return a.restoredPTFs }

// ptfRefsDropped reports whether p records an edge to a PTF outside the
// survivor set.
func ptfRefsDropped(p *PTF, kept map[*PTF]bool) bool {
	bad := false
	p.callEdges.each(func(_ siteKey, v *PTF) bool {
		if !kept[v] {
			bad = true
			return false
		}
		return true
	})
	if bad {
		return true
	}
	p.siteUsed.each(func(_ siteKey, v *PTF) bool {
		if !kept[v] {
			bad = true
			return false
		}
		return true
	})
	if bad {
		return true
	}
	p.applied.each(func(_ siteKey, m appliedMemo) bool {
		if m.ptf != nil && !kept[m.ptf] {
			bad = true
			return false
		}
		return true
	})
	if bad {
		return true
	}
	p.deps.each(func(d *PTF, _ int) bool {
		if !kept[d] {
			bad = true
			return false
		}
		return true
	})
	return bad
}

// rekeyBlocks moves a symbol-keyed block namespace onto the edited
// symbol objects, updating each block's originating symbol in step.
func rekeyBlocks(m map[*cast.Symbol]*memmod.Block, symNew map[*cast.Symbol]*cast.Symbol) {
	for s, b := range m {
		ns := symNew[s]
		if ns == nil || ns == s {
			continue
		}
		delete(m, s)
		b.Sym = ns
		m[ns] = b
	}
}

// rekeySymSet moves a function-pointer domain set onto the edited
// symbol objects.
func rekeySymSet(set map[*cast.Symbol]bool, symNew map[*cast.Symbol]*cast.Symbol) {
	for s := range set {
		if ns := symNew[s]; ns != nil && ns != s {
			delete(set, s)
			set[ns] = true
		}
	}
}

// rewireProc redirects the symbol references of a kept baseline flow
// graph onto the edited program's symbol objects, so that clean
// (baseline) and dirty (edited) procedures resolve the same global,
// extern or function name to the same block. Locals stay with the
// baseline symbols — they are private to the procedure.
func rewireProc(p *cfg.Proc, symNew map[*cast.Symbol]*cast.Symbol) {
	for _, nd := range p.Nodes {
		rewireExpr(nd.Dst, symNew)
		rewireExpr(nd.Src, symNew)
		rewireExpr(nd.Fun, symNew)
		rewireExpr(nd.RetDst, symNew)
		for _, arg := range nd.Args {
			rewireExpr(arg, symNew)
		}
		if nd.Direct != nil {
			if ns := symNew[nd.Direct]; ns != nil {
				nd.Direct = ns
			}
		}
	}
}

func rewireExpr(e *cfg.Expr, symNew map[*cast.Symbol]*cast.Symbol) {
	if e == nil {
		return
	}
	for i := range e.Terms {
		t := &e.Terms[i]
		switch t.Kind {
		case cfg.TermVar, cfg.TermFunc:
			if t.Sym != nil {
				if ns := symNew[t.Sym]; ns != nil {
					t.Sym = ns
				}
			}
		case cfg.TermDeref:
			rewireExpr(t.Base, symNew)
		}
	}
}

// Program returns the program this analysis runs over (the edited
// program after PrepareIncremental).
func (a *Analysis) Program() *sem.Program { return a.prog }
