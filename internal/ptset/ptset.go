package ptset

import (
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

	// bits is the dense index over Vals' members, attached once the row
	// passes memmod.DenseThreshold (nil for small rows). It is owned by
	// the points-to layer and maintained in assign.
	bits *memmod.RowBits
}

// locSlot is the per-location state of one dense slot: the interned ID,
// the change generation, and the assignment records (unordered; lookups
// select the nearest dominating record).
type locSlot struct {
	id   memmod.LocID
	gen  uint32
	rows []*Record
}

// idxSlot is one line of the open-addressed LocID → slot table. A key
// of 0 means empty; occupied entries store id+1.
type idxSlot struct {
	key memmod.LocID
	val int32
}

// Slab chunk sizes. Records are carved out of block allocations instead
// of being allocated one by one; same for record-pointer headers, stored
// value-set members and φ-location lists.
const (
	recSlabSize = 64
	ptrSlabSize = 256
	locSlabSize = 256
	idSlabSize  = 256
)

// PTS is the sparse points-to function for one procedure instance.
// All location keys are interned through the analysis-wide Interner.
// A PTS is not safe for concurrent use: lookups intern their key, so
// even reads of a converged PTS need one goroutine at a time.
//
// Per-location state (records and change generations) lives in dense
// parallel arrays indexed by a compact slot number, with an
// open-addressed LocID → slot table in front. A PTS touches a small
// fraction of the analysis-wide ID space, so slot-dense storage beats
// both a Go map (bucket churn while growing) and ID-dense arrays
// (memory proportional to the whole analysis).
type PTS struct {
	proc *cfg.Proc
	in   *memmod.Interner

	// idx is the open-addressed LocID → slot table (linear probing,
	// power-of-two size, 75% max load); slots holds the per-location
	// state it points at.
	idx   []idxSlot
	slots []locSlot

	// phis lists the locations having φ-functions at each meet node
	// (indexed by the node's dense per-procedure ID; small per-node
	// lists with linear membership). phiCache memoizes the sorted
	// location form per node.
	phis     [][]memmod.LocID
	phiCache [][]memmod.LocSet

	locsCache []memmod.LocSet

	// recSlab is the tail of the current record allocation chunk;
	// ptrSlab carves the per-location record-pointer headers (most
	// locations keep one or two records); locSlab carves the backing of
	// stored value sets (storeClone).
	recSlab []Record
	ptrSlab []*Record
	locSlab []memmod.LocSet

	// arena backs weak-union growth of stored rows; rows live as long
	// as the PTS, matching the arena's never-reset lifetime. idSlab
	// carves the small per-node φ-location lists the same way.
	arena  memmod.Arena
	idSlab []memmod.LocID

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

func idHash(id memmod.LocID) uint32 {
	h := uint32(id) * 0x9e3779b1
	return h ^ h>>16
}

// slot returns the dense slot of id, or -1 if the PTS has no state for
// it yet. Read-only: safe on frozen instances.
func (p *PTS) slot(id memmod.LocID) int32 {
	if len(p.idx) == 0 {
		return -1
	}
	mask := uint32(len(p.idx) - 1)
	h := idHash(id) & mask
	for {
		k := p.idx[h].key
		if k == 0 {
			return -1
		}
		if k == id+1 {
			return p.idx[h].val
		}
		h = (h + 1) & mask
	}
}

// slotOrNew returns the slot of id, creating it (with empty state) on
// first use. Only the owning evaluation context may call it.
func (p *PTS) slotOrNew(id memmod.LocID) int32 {
	if len(p.idx) == 0 {
		p.idx = make([]idxSlot, 64)
		// Pre-size the slot array with the index so small and mid-size
		// procedures never regrow (the index resizes at 48 live slots).
		p.slots = make([]locSlot, 0, 48)
	}
	mask := uint32(len(p.idx) - 1)
	h := idHash(id) & mask
	for {
		k := p.idx[h].key
		if k == 0 {
			break
		}
		if k == id+1 {
			return p.idx[h].val
		}
		h = (h + 1) & mask
	}
	if 4*(len(p.slots)+1) >= 3*len(p.idx) {
		p.growIdx()
		mask = uint32(len(p.idx) - 1)
		h = idHash(id) & mask
		for p.idx[h].key != 0 {
			h = (h + 1) & mask
		}
	}
	p.idx[h].key = id + 1
	si := int32(len(p.slots))
	p.idx[h].val = si
	p.slots = append(p.slots, locSlot{id: id})
	return si
}

func (p *PTS) growIdx() {
	old := p.idx
	n := 2 * len(old)
	p.idx = make([]idxSlot, n)
	mask := uint32(n - 1)
	for _, e := range old {
		if e.key == 0 {
			continue
		}
		h := idHash(e.key-1) & mask
		for p.idx[h].key != 0 {
			h = (h + 1) & mask
		}
		p.idx[h] = e
	}
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

// newRecord carves a record out of the slab. Chunks are never recycled
// or moved, so the returned pointer is stable for the PTS lifetime.
func (p *PTS) newRecord() *Record {
	if len(p.recSlab) == 0 {
		p.recSlab = make([]Record, recSlabSize)
	}
	r := &p.recSlab[0]
	p.recSlab = p.recSlab[1:]
	return r
}

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
					r.Vals = p.storeClone(vals)
					r.bits = nil // rebuilt lazily if the row grows again
					changed = true
				}
			} else {
				if r.bits == nil && r.Vals.Len() >= memmod.DenseThreshold {
					r.bits = memmod.NewRowBits(p.in, r.Vals)
				}
				var grew bool
				if r.bits != nil {
					grew = r.bits.UnionInto(&r.Vals, vals)
				} else {
					grew = p.arena.AddAll(&r.Vals, vals)
				}
				if grew {
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
	r := p.newRecord()
	*r = Record{Node: at, Loc: loc, Vals: p.storeClone(vals), Strong: strong, Phi: phi}
	if si < 0 {
		si = p.slotOrNew(id)
		p.locsCache = nil
	}
	rs := p.slots[si].rows
	if len(rs) == 0 {
		if len(p.ptrSlab) < 2 {
			p.ptrSlab = make([]*Record, ptrSlabSize)
		}
		rs = p.ptrSlab[0:0:2]
		p.ptrSlab = p.ptrSlab[2:]
	} else if len(rs) == cap(rs) && cap(rs) <= recSlabSize {
		// Re-carve a doubled header from the slab instead of letting
		// append reallocate on the heap for every growing location.
		n := 2 * cap(rs)
		if len(p.ptrSlab) < n {
			p.ptrSlab = make([]*Record, ptrSlabSize)
		}
		ns := p.ptrSlab[0:len(rs):n]
		p.ptrSlab = p.ptrSlab[n:]
		copy(ns, rs)
		rs = ns
	}
	p.slots[si].rows = append(rs, r)
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

// storeClone snapshots vals for a stored record, carving the backing
// from the location slab (records live for the PTS lifetime; batching
// their member storage into chunks keeps them off the allocator).
func (p *PTS) storeClone(vals memmod.ValueSet) memmod.ValueSet {
	n := vals.Len()
	if n == 0 || n > recSlabSize {
		return vals.Clone()
	}
	if len(p.locSlab) < n {
		p.locSlab = make([]memmod.LocSet, locSlabSize)
	}
	dst := p.locSlab[0:n:n]
	p.locSlab = p.locSlab[n:]
	return vals.CloneInto(dst)
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
			switch {
			case len(set) == 0:
				if len(p.idSlab) < 4 {
					p.idSlab = make([]memmod.LocID, idSlabSize)
				}
				set = p.idSlab[0:0:4]
				p.idSlab = p.idSlab[4:]
			case len(set) == cap(set) && cap(set) <= 64:
				n := 2 * cap(set)
				if len(p.idSlab) < n {
					p.idSlab = make([]memmod.LocID, idSlabSize)
				}
				ns := p.idSlab[0:len(set):n]
				p.idSlab = p.idSlab[n:]
				copy(ns, set)
				set = ns
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
	sortLocs(out)
	if p.phiCache == nil {
		p.phiCache = make([][]memmod.LocSet, len(p.proc.Nodes))
	}
	p.phiCache[nd.ID] = out
	return out
}

// sortLocs sorts location sets by (base name, offset, stride). Both
// sort.Slice (reflection-based swapper) and sort.Sort (interface boxing
// of the slice header) allocate per call, so this is a hand-rolled
// quicksort with an insertion-sort cutoff — the lists are tiny in the
// common case.
func sortLocs(s []memmod.LocSet) {
	for len(s) > 12 {
		// Median-of-three pivot, moved to the front.
		m := len(s) / 2
		lo, hi := 0, len(s)-1
		if lessLoc(s[m], s[lo]) {
			s[m], s[lo] = s[lo], s[m]
		}
		if lessLoc(s[hi], s[lo]) {
			s[hi], s[lo] = s[lo], s[hi]
		}
		if lessLoc(s[hi], s[m]) {
			s[hi], s[m] = s[m], s[hi]
		}
		pivot := s[m]
		i, j := 0, len(s)-1
		for i <= j {
			for lessLoc(s[i], pivot) {
				i++
			}
			for lessLoc(pivot, s[j]) {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		// Recurse into the smaller half, loop on the larger.
		if j < len(s)-i {
			sortLocs(s[:j+1])
			s = s[i:]
		} else {
			sortLocs(s[i:])
			s = s[:j+1]
		}
	}
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && lessLoc(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func lessLoc(a, b memmod.LocSet) bool {
	if a.Base != b.Base {
		return a.Base.Name < b.Base.Name
	}
	if a.Off != b.Off {
		return a.Off < b.Off
	}
	return a.Stride < b.Stride
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
	sortLocs(out)
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

// NumDenseRows returns the number of stored records whose value set
// carries the bitset index (observability for tests and benchmarks).
func (p *PTS) NumDenseRows() int {
	n := 0
	for i := range p.slots {
		for _, r := range p.slots[i].rows {
			if r.bits != nil {
				n++
			}
		}
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
