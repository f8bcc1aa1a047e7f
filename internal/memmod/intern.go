package memmod

import "sync/atomic"

// LocID is the compact identity of an interned location set. IDs are
// handed out per Interner in first-seen order starting at 1; 0 (NoLoc)
// is never a valid ID. IDs are meaningful only relative to the Interner
// that produced them and only for the lifetime of one analysis run —
// nothing may hold a LocID across runs.
type LocID uint32

// NoLoc is the zero LocID; no interned location set ever has it.
const NoLoc LocID = 0

// internerTags hands out process-unique identities for Interners; the
// per-Block scalar-ID cache is stamped with the owning interner's tag so
// a cached ID can never leak into a different interner (or a later run).
var internerTags uint32

// resEntry caches the subsumption-resolved ID of an interned location
// set, stamped with the subsumption generation it was computed under.
type resEntry struct {
	id  LocID
	gen uint64
}

// Interner assigns small integer identities to location sets so the hot
// maps of the points-to layer can key on 4-byte IDs instead of 24-byte
// structs, and so value sets can be represented as bitsets over IDs.
// One Interner serves one analysis run: location sets are interned in
// their exact (already canonicalized/resolved) form, and the resolution
// of each ID through parameter subsumption is computed once per
// subsumption generation and cached (ResolveID). An Interner is not
// safe for concurrent use; reads intern too, so the analysis that owns
// it is read by one goroutine at a time.
type Interner struct {
	// tag is this interner's process-unique identity (see internerTags).
	tag uint32

	ridx map[LocSet]LocID // exact struct -> ID
	locs []LocSet         // ID -> exact struct; index 0 unused
	res  []resEntry       // ID -> cached resolved ID + generation

	hits, misses uint64
}

// NewInterner creates an empty intern table.
func NewInterner() *Interner {
	return &Interner{
		tag:  atomic.AddUint32(&internerTags, 1),
		ridx: make(map[LocSet]LocID, 64),
		locs: make([]LocSet, 1, 64),
		res:  make([]resEntry, 1, 64),
	}
}

// ExactID interns l in its exact form, without resolving it first. The
// caller must have resolved/canonicalized l already (Loc/Resolve do);
// interning a stale form is harmless — it simply gets its own ID, which
// is exactly how the sparse representation treats distinct stored forms.
func (in *Interner) ExactID(l LocSet) LocID {
	if l.Off == 0 && l.Stride == 0 {
		// Fast path: whole-block scalar locations dominate, and their ID
		// is cached on the block itself (tagged with the interner so it
		// cannot leak across interners or runs) — one atomic load
		// instead of a map probe.
		if v := l.Base.scalarID.Load(); uint32(v>>32) == in.tag {
			return LocID(uint32(v))
		}
		id := in.exactIDSlow(l)
		l.Base.scalarID.Store(uint64(in.tag)<<32 | uint64(id))
		return id
	}
	return in.exactIDSlow(l)
}

func (in *Interner) exactIDSlow(l LocSet) LocID {
	if id, ok := in.ridx[l]; ok {
		in.hits++
		return id
	}
	in.misses++
	id := LocID(len(in.locs))
	in.locs = append(in.locs, l)
	in.res = append(in.res, resEntry{})
	in.ridx[l] = id
	return id
}

// ID interns the resolved form of l and returns its identity: the
// canonical entry point for callers holding an arbitrary location set.
func (in *Interner) ID(l LocSet) LocID { return in.ExactID(l.Resolve()) }

// Loc returns the exact location set interned under id.
func (in *Interner) Loc(id LocID) LocSet { return in.locs[id] }

// ResolveID returns the ID of id's location set resolved through
// parameter subsumption, computing it at most once per subsumption
// generation. While no subsumption intervenes this is a stamped cache
// hit with no Resolve walk at all.
func (in *Interner) ResolveID(id LocID) LocID {
	g := SubsumeGen()
	if e := in.res[id]; e.id != NoLoc && e.gen == g {
		return e.id
	}
	l := in.locs[id].Resolve()
	rid, ok := in.ridx[l]
	if !ok {
		rid = LocID(len(in.locs))
		in.locs = append(in.locs, l)
		in.res = append(in.res, resEntry{})
		in.ridx[l] = rid
	}
	in.res[id] = resEntry{id: rid, gen: g}
	return rid
}

// Stats returns the intern hit/miss counters (for benchmarks).
func (in *Interner) Stats() (hits, misses uint64) { return in.hits, in.misses }
