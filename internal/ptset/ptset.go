package ptset

import (
	"cmp"
	"slices"

	"wlpa/internal/cfg"
	"wlpa/internal/memmod"
)

// Record is one sparse points-to binding: at Node, Loc holds Vals.
type Record struct {
	Node   *cfg.Node
	Loc    memmod.LocSet
	Vals   memmod.ValueSet
	Strong bool // the assignment overwrote the previous contents
	Phi    bool // the record is a φ-function result
}

// locSlot is the per-location state of one slot: the interned ID, the
// change generation, and the assignment records (unordered; lookups
// select the nearest dominating record).
type locSlot struct {
	id   memmod.LocID
	gen  uint32
	rows []*Record
}

// PTS is the sparse points-to function for one procedure instance.
// All location keys are interned through the analysis-wide Interner.
// A PTS is not safe for concurrent use: lookups intern their key, so
// even reads of a converged PTS need one goroutine at a time.
//
// Per-location state (records and change generations) lives in a slot
// array in first-assignment order, with a LocID → slot map in front. A
// PTS touches a small fraction of the analysis-wide ID space, so it
// keys by ID rather than sizing arrays to the whole analysis.
type PTS struct {
	proc *cfg.Proc
	in   *memmod.Interner

	// idx maps a location's ID to its slot in slots.
	idx   map[memmod.LocID]int32
	slots []locSlot

	// phis lists the locations having φ-functions at each meet node
	// (indexed by the node's dense per-procedure ID; small per-node
	// lists with linear membership). phiCache memoizes the sorted
	// location form per node.
	phis     [][]memmod.LocID
	phiCache [][]memmod.LocSet

	locsCache []memmod.LocSet

	// arena backs weak-union growth of stored rows and the sorted
	// location lists; they live as long as the PTS, matching the
	// arena's never-reset lifetime.
	arena memmod.Arena

	// hooks fires after any record change to a location (OnChange) and
	// when a new φ-function is first placed at a meet node (OnPhi). The
	// worklist engine uses them for dependency-tracked re-evaluation.
	hooks Hooks
}

// New creates an empty points-to function over proc, keyed through the
// analysis-wide intern table. All side tables are created lazily at
// their write sites: a PTS for a small procedure may never touch
// several of them.
func New(proc *cfg.Proc, in *memmod.Interner) *PTS {
	return &PTS{proc: proc, in: in}
}

// Hooks receives change notifications: OnChange after any record
// change to a location (new values, new record, weakened strong flag);
// OnPhi when a φ-function is first placed at a meet node. An interface
// rather than a pair of closures so installing hooks does not allocate.
type Hooks interface {
	OnChange(memmod.LocSet)
	OnPhi(*cfg.Node)
}

// SetHooks installs the change notification sink.
func (p *PTS) SetHooks(h Hooks) {
	p.hooks = h
}

// slot returns the slot of id, or -1 if the PTS has no state for it
// yet. Read-only: safe on frozen instances.
func (p *PTS) slot(id memmod.LocID) int32 {
	if si, ok := p.idx[id]; ok {
		return si
	}
	return -1
}

// slotOrNew returns the slot of id, creating it (with empty state) on
// first use. Only the owning evaluation context may call it.
func (p *PTS) slotOrNew(id memmod.LocID) int32 {
	if si, ok := p.idx[id]; ok {
		return si
	}
	if p.idx == nil {
		p.idx = make(map[memmod.LocID]int32)
	}
	si := int32(len(p.slots))
	p.idx[id] = si
	p.slots = append(p.slots, locSlot{id: id})
	return si
}

// rowsOf returns the records of id (nil if none). Read-only.
func (p *PTS) rowsOf(id memmod.LocID) []*Record {
	if si := p.slot(id); si >= 0 {
		return p.slots[si].rows
	}
	return nil
}

func (p *PTS) locGen(id memmod.LocID) uint32 {
	if si := p.slot(id); si >= 0 {
		return p.slots[si].gen
	}
	return 0
}

// Gen returns the change generation of loc: it moves whenever a record
// of loc is added or changes, so while it reads the same, so do loc's
// records. Rehome renumbers generations, and it runs only after a
// subsumption, which moves memmod.SubsumeGen. Read-only.
func (p *PTS) Gen(loc memmod.LocSet) uint32 { return p.locGen(p.in.ID(loc)) }

// LookupIn returns the values of loc flowing INTO node at (excluding any
// record at the node itself): the nearest strictly-dominating record.
// after, when non-nil, is a strong-update barrier: records at nodes not
// dominated by it are invisible. The boolean reports whether any record
// was found (false means the caller must consult the initial values).
func (p *PTS) LookupIn(loc memmod.LocSet, at *cfg.Node, after *cfg.Node) (memmod.ValueSet, bool) {
	return p.lookup(loc, at, after, false)
}

// LookupOut returns the values of loc flowing OUT of node at (including
// a record at the node itself).
func (p *PTS) LookupOut(loc memmod.LocSet, at *cfg.Node, after *cfg.Node) (memmod.ValueSet, bool) {
	return p.lookup(loc, at, after, true)
}

func (p *PTS) lookup(loc memmod.LocSet, at *cfg.Node, after *cfg.Node, includeAt bool) (memmod.ValueSet, bool) {
	var best *Record
	for _, r := range p.rowsOf(p.in.ID(loc)) {
		if r.Node == at && !includeAt {
			continue
		}
		if !r.Node.Dominates(at) {
			continue
		}
		if after != nil && !after.Dominates(r.Node) {
			continue
		}
		if best == nil || best.Node.Dominates(r.Node) {
			best = r
		}
	}
	if best == nil {
		return memmod.ValueSet{}, false
	}
	return best.Vals.Resolved(), true
}

// RecordAt returns the record for loc exactly at node, or nil.
func (p *PTS) RecordAt(loc memmod.LocSet, at *cfg.Node) *Record {
	return p.recordAt(p.in.ID(loc), at)
}

func (p *PTS) recordAt(id memmod.LocID, at *cfg.Node) *Record {
	for _, r := range p.rowsOf(id) {
		if r.Node == at {
			return r
		}
	}
	return nil
}

// Assign records that loc holds vals at node. strong marks a strong
// update (replacing previous values on re-evaluation); weak updates must
// have folded the incoming values into vals already (paper Figure 11).
// It reports whether the points-to function changed.
func (p *PTS) Assign(loc memmod.LocSet, vals memmod.ValueSet, at *cfg.Node, strong bool) bool {
	return p.assign(loc, vals, at, strong, false)
}

// AssignPhi records a φ result at a meet node.
func (p *PTS) AssignPhi(loc memmod.LocSet, vals memmod.ValueSet, at *cfg.Node) bool {
	return p.assign(loc, vals, at, false, true)
}

func (p *PTS) assign(loc memmod.LocSet, vals memmod.ValueSet, at *cfg.Node, strong, phi bool) bool {
	loc = loc.Resolve()
	id := p.in.ExactID(loc)
	vals = vals.Resolved()
	si := p.slot(id)
	if si >= 0 {
		if r := p.rowRecordAt(si, at); r != nil {
			changed := false
			if strong && r.Strong {
				// Re-evaluated strong update: replace, with a copy as
				// for a new record, since vals is usually the caller's
				// arena-backed scratch.
				if !r.Vals.Equal(vals) {
					r.Vals = vals.Clone()
					changed = true
				}
			} else {
				if p.arena.AddAll(&r.Vals, vals) {
					changed = true
				}
				if r.Strong && !strong {
					r.Strong = false
					changed = true
				}
			}
			if changed {
				p.bumpSlot(si, loc)
			}
			return changed
		}
	}
	r := &Record{Node: at, Loc: loc, Vals: vals.Clone(), Strong: strong, Phi: phi}
	if si < 0 {
		si = p.slotOrNew(id)
		p.locsCache = nil
	}
	p.slots[si].rows = append(p.slots[si].rows, r)
	p.bumpSlot(si, loc)
	p.insertPhis(id, at)
	return true
}

func (p *PTS) rowRecordAt(si int32, at *cfg.Node) *Record {
	for _, r := range p.slots[si].rows {
		if r.Node == at {
			return r
		}
	}
	return nil
}

// bumpSlot moves the change generation of the location in slot si
// (see Gen) and fires OnChange.
func (p *PTS) bumpSlot(si int32, loc memmod.LocSet) {
	p.slots[si].gen++
	if p.hooks != nil {
		p.hooks.OnChange(loc)
	}
}

// insertPhis places φ-functions for loc on the iterated dominance
// frontier of node (dynamic SSA construction, paper §4.2).
func (p *PTS) insertPhis(id memmod.LocID, node *cfg.Node) {
	work := []*cfg.Node{node}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		for _, m := range n.DF {
			if p.phis == nil {
				p.phis = make([][]memmod.LocID, len(p.proc.Nodes))
			}
			set := p.phis[m.ID]
			has := false
			for _, e := range set {
				if e == id {
					has = true
					break
				}
			}
			if has {
				continue
			}
			p.phis[m.ID] = append(set, id)
			if p.phiCache != nil {
				p.phiCache[m.ID] = nil
			}
			if p.hooks != nil {
				p.hooks.OnPhi(m)
			}
			work = append(work, m)
		}
	}
}

// PhiLocs returns the locations with φ-functions at meet node nd, in a
// deterministic order. The caller must not mutate the result.
func (p *PTS) PhiLocs(nd *cfg.Node) []memmod.LocSet {
	if p.phis == nil {
		return nil
	}
	set := p.phis[nd.ID]
	if len(set) == 0 {
		return nil
	}
	if p.phiCache != nil {
		if out := p.phiCache[nd.ID]; out != nil {
			return out
		}
	}
	out := p.arena.Carve(len(set))
	for _, id := range set {
		out = append(out, p.in.Loc(id))
	}
	slices.SortStableFunc(out, compareLocs)
	if p.phiCache == nil {
		p.phiCache = make([][]memmod.LocSet, len(p.proc.Nodes))
	}
	p.phiCache[nd.ID] = out
	return out
}

// compareLocs orders location sets by (base name, offset, stride).
// Sets on distinct blocks that share a name compare equal, so the
// sorts are stable: such sets keep their insertion order.
func compareLocs(a, b memmod.LocSet) int {
	if a.Base != b.Base {
		return cmp.Compare(a.Base.Name, b.Base.Name)
	}
	if c := cmp.Compare(a.Off, b.Off); c != 0 {
		return c
	}
	return cmp.Compare(a.Stride, b.Stride)
}

// FindStrongUpdate returns the nearest dominating node (strictly before
// at) holding a strong update of loc, or nil (paper Figure 10).
func (p *PTS) FindStrongUpdate(loc memmod.LocSet, at *cfg.Node) *cfg.Node {
	var best *Record
	for _, r := range p.rowsOf(p.in.ID(loc)) {
		if !r.Strong || r.Node == at || !r.Node.Dominates(at) {
			continue
		}
		if best == nil || best.Node.Dominates(r.Node) {
			best = r
		}
	}
	if best == nil {
		return nil
	}
	return best.Node
}

// Locations returns every location set with at least one record, in a
// deterministic order. The caller must not mutate the result.
func (p *PTS) Locations() []memmod.LocSet {
	if p.locsCache != nil || len(p.slots) == 0 {
		return p.locsCache
	}
	out := p.arena.Carve(len(p.slots))
	for i := range p.slots {
		out = append(out, p.in.Loc(p.slots[i].id))
	}
	slices.SortStableFunc(out, compareLocs)
	p.locsCache = out
	return out
}

// Records returns the records of loc (for diagnostics).
func (p *PTS) Records(loc memmod.LocSet) []*Record { return p.rowsOf(p.in.ID(loc)) }

// NumRecords returns the total number of sparse records.
func (p *PTS) NumRecords() int {
	n := 0
	for i := range p.slots {
		n += len(p.slots[i].rows)
	}
	return n
}

// Rehome re-canonicalizes all record keys after parameter subsumption:
// keys whose base was subsumed are resolved and merged. The analysis
// calls this after introducing a subsumption (paper §3.2). The sorted
// location and φ lists are rebuilt on their next read.
func (p *PTS) Rehome() {
	dirty := false
	for i := range p.slots {
		if id := p.slots[i].id; p.in.ResolveID(id) != id {
			dirty = true
			break
		}
	}
	if !dirty {
		return
	}
	old := p.slots
	p.idx, p.slots = nil, nil
	for i := range old {
		id := old[i].id
		nid := p.in.ResolveID(id)
		nl := p.in.Loc(nid)
		for _, r := range old[i].rows {
			r.Loc = nl
			// Merge with an existing record at the same node.
			if ex := p.recordAt(nid, r.Node); ex != nil {
				ex.Vals.AddAll(r.Vals)
				if !r.Strong {
					ex.Strong = false
				}
				continue
			}
			si := p.slotOrNew(nid)
			p.slots[si].rows = append(p.slots[si].rows, r)
		}
	}
	// φ sets as well.
	for ndID, set := range p.phis {
		ns := set[:0]
		for _, id := range set {
			rid := p.in.ResolveID(id)
			dup := false
			for _, e := range ns {
				if e == rid {
					dup = true
					break
				}
			}
			if !dup {
				ns = append(ns, rid)
			}
		}
		p.phis[ndID] = ns
	}
	p.locsCache = nil
	p.phiCache = nil
}
