package memmod

// Arena is a bump allocator for transient location-set storage: the
// evaluation engine builds large numbers of short-lived small value
// sets (expression results, meets, dereference contents), and carving
// their backing slices out of chunks turns thousands of individual
// allocations into a handful of chunk allocations.
//
// An arena is never reset and never recycles a carve, so a carved slice
// stays valid for as long as anything references it: there is no
// use-after-reset hazard. An owner that is done carving may drop the
// arena (replace it with the zero Arena), which releases only the
// current chunk; each chunk then lives exactly as long as some carve
// from it is referenced. The analysis drops its evaluation arena when a
// run ends; a points-to function's arena lives as long as its rows.
// Each carve's capacity is clipped exactly, so appending past it falls
// back to an ordinary heap reallocation and can never write into a
// neighboring carve. Arenas are single-goroutine (one per evaluation
// context).
type Arena struct {
	buf []LocSet
}

// Chunks ramp from arenaMinChunk to arenaMaxChunk (24 KiB) as an arena
// proves hot: long-lived evaluation contexts reach the full chunk size
// within a few refills, while the many small per-PTS arenas never pay
// for (or zero) more than they use.
const (
	arenaMinChunk = 64
	arenaMaxChunk = 1024
)

// Carve returns an empty slice with capacity n backed by the arena.
func (a *Arena) Carve(n int) []LocSet {
	if n > arenaMaxChunk {
		return make([]LocSet, 0, n)
	}
	if cap(a.buf)-len(a.buf) < n {
		c := 2 * cap(a.buf)
		if c < arenaMinChunk {
			c = arenaMinChunk
		}
		if c > arenaMaxChunk {
			c = arenaMaxChunk
		}
		if c < n {
			c = n
		}
		a.buf = make([]LocSet, 0, c)
	}
	m := len(a.buf)
	a.buf = a.buf[:m+n]
	return a.buf[m : m : m+n]
}

// NewSet returns an empty ValueSet whose first few members live in the
// arena (the common case: pointer value sets are small). Growth past
// the seeded capacity reallocates on the heap as usual.
func (a *Arena) NewSet() ValueSet {
	return ValueSet{locs: a.Carve(2)}
}

// CloneSet copies v into arena-backed storage. Unlike AddAll into a
// fresh set, it copies members and hash wholesale without re-running
// dedup scans. The members are already resolved/deduped by v's own
// invariants. Capacity is clipped to the length, so the clone grows
// away from the carve on first append past it.
func (a *Arena) CloneSet(v ValueSet) ValueSet {
	n := len(v.locs)
	if n == 0 {
		return ValueSet{locs: a.Carve(2)}
	}
	locs := a.Carve(n)
	locs = locs[:n]
	copy(locs, v.locs)
	return ValueSet{locs: locs, hash: v.hash}
}

// Value1 returns a single-member set backed by the arena. The carve's
// capacity is exactly one, so copies that append reallocate away and
// can never alias each other through spare capacity.
func (a *Arena) Value1(l LocSet) ValueSet {
	v := ValueSet{locs: a.Carve(1)}
	v.Add(l)
	return v
}

// AddAll unions o into v, reallocating v's backing from the arena when
// it must grow (the same pre-grow policy as ValueSet.AddAll, minus the
// heap allocation). v must be exclusively owned by the caller.
func (a *Arena) AddAll(v *ValueSet, o ValueSet) bool {
	if n := len(o.locs); n > 0 && cap(v.locs)-len(v.locs) < n {
		need := len(v.locs) + n
		if c := 2 * cap(v.locs); c > need {
			need = c
		}
		nl := a.Carve(need)
		nl = nl[:len(v.locs)]
		copy(nl, v.locs)
		v.locs = nl
	}
	return v.AddAll(o)
}

// ShiftSet is ValueSet.Shift with the result carved from the arena.
func (a *Arena) ShiftSet(v ValueSet, delta int64) ValueSet {
	if delta == 0 {
		return v.Resolved()
	}
	out := ValueSet{locs: a.Carve(v.Len())}
	for _, l := range v.Locs() {
		out.Add(l.Shift(delta))
	}
	return out
}

// StrideSet is ValueSet.WithStride with the result carved from the arena.
func (a *Arena) StrideSet(v ValueSet, s int64) ValueSet {
	out := ValueSet{locs: a.Carve(v.Len())}
	for _, l := range v.Locs() {
		out.Add(l.WithStride(s))
	}
	return out
}
