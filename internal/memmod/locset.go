package memmod

import "fmt"

// LocSet is a location set (paper §3.1): the set of byte positions
// {Off + i*Stride | i ∈ Z} within Base. Stride 0 denotes the single
// position Off; stride 1 denotes every position in the block (entirely
// unknown position). Offsets are reduced modulo the stride when the
// stride is non-zero, which also encodes the paper's rule that an array
// nested in a structure overlaps the entire structure. Offsets may be
// negative when the stride is 0 (paper Figure 7).
type LocSet struct {
	Base   *Block
	Off    int64
	Stride int64
}

// Loc constructs a canonical location set.
func Loc(base *Block, off, stride int64) LocSet {
	return LocSet{Base: base, Off: off, Stride: stride}.canon()
}

func (l LocSet) canon() LocSet {
	if l.Stride == 0 {
		// Fast path: scalar positions need no reduction.
		return l
	}
	if l.Stride < 0 {
		l.Stride = -l.Stride
	}
	if l.Off < 0 || l.Off >= l.Stride {
		l.Off = ((l.Off % l.Stride) + l.Stride) % l.Stride
	}
	return l
}

// Resolve follows parameter subsumption forwarding on the base block,
// adjusting the offset by the recorded delta. When the delta is unknown
// the result has stride 1 (fully unknown position).
func (l LocSet) Resolve() LocSet {
	if l.Base.fwd == nil {
		// Fast path: unforwarded bases only need canonicalization.
		return l.canon()
	}
	for l.Base.fwd != nil {
		if l.Base.fwdUnknown {
			l = LocSet{Base: l.Base.fwd, Off: 0, Stride: 1}
		} else {
			l = LocSet{Base: l.Base.fwd, Off: l.Off + l.Base.fwdDelta, Stride: l.Stride}.canon()
		}
	}
	return l.canon()
}

// Shift returns the location set displaced by delta bytes.
func (l LocSet) Shift(delta int64) LocSet {
	return LocSet{Base: l.Base, Off: l.Off + delta, Stride: l.Stride}.canon()
}

// WithStride returns the location set widened to the given stride (the
// offset is re-canonicalized). Used for pointer arithmetic: adding an
// unknown multiple of stride s to a pointer.
func (l LocSet) WithStride(s int64) LocSet {
	if s == 0 {
		return l
	}
	ns := gcd64(l.Stride, s)
	return LocSet{Base: l.Base, Off: l.Off, Stride: ns}.canon()
}

// Unknown returns the fully-unknown-position location set of the base.
func (l LocSet) Unknown() LocSet { return LocSet{Base: l.Base, Off: 0, Stride: 1} }

func gcd64(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return b
	}
	return a
}

// Overlaps reports whether two location sets may denote a common byte
// position: same base and non-empty intersection of their arithmetic
// position sets.
func (l LocSet) Overlaps(o LocSet) bool {
	if l.Base.Representative() != o.Base.Representative() {
		return false
	}
	l, o = l.Resolve(), o.Resolve()
	switch {
	case l.Stride == 0 && o.Stride == 0:
		return l.Off == o.Off
	case l.Stride == 0:
		return mod(l.Off-o.Off, o.Stride) == 0
	case o.Stride == 0:
		return mod(o.Off-l.Off, l.Stride) == 0
	default:
		g := gcd64(l.Stride, o.Stride)
		return mod(l.Off-o.Off, g) == 0
	}
}

// Contains reports whether every position of o is a position of l
// (assuming the same base).
func (l LocSet) Contains(o LocSet) bool {
	if l.Base.Representative() != o.Base.Representative() {
		return false
	}
	l, o = l.Resolve(), o.Resolve()
	if l.Stride == 0 {
		return o.Stride == 0 && o.Off == l.Off
	}
	if mod(o.Off-l.Off, l.Stride) != 0 {
		return false
	}
	if o.Stride == 0 {
		return true
	}
	return o.Stride%l.Stride == 0
}

func mod(a, m int64) int64 {
	if m == 0 {
		return a
	}
	return ((a % m) + m) % m
}

// Precise reports whether the location set denotes a single known
// position of a unique block, permitting strong updates (paper §4.1).
func (l LocSet) Precise() bool {
	l = l.Resolve()
	return l.Stride == 0 && l.Base.Unique()
}

func (l LocSet) String() string {
	l = l.Resolve()
	switch {
	case l.Off == 0 && l.Stride == 0:
		return l.Base.Name
	case l.Stride == 0:
		return fmt.Sprintf("%s+%d", l.Base.Name, l.Off)
	default:
		return fmt.Sprintf("%s+%d%%%d", l.Base.Name, l.Off, l.Stride)
	}
}

// ValueSet is a set of location sets: the possible values of a pointer.
// The zero value is the empty set. ValueSets are small in practice
// (pointers typically have only a few possible values; paper §4.2), so a
// slice with linear membership tests beats a map. Members are stored
// resolved (see Add); an order-independent hash of the members is kept
// incrementally so set comparisons can reject mismatches without
// re-comparing element-wise.
type ValueSet struct {
	locs []LocSet
	hash uint64
}

// hashLoc mixes a location set into a 64-bit fingerprint (SplitMix64 on
// the block identity and position). Hashes are combined by XOR, making
// the set hash independent of insertion order.
func hashLoc(l LocSet) uint64 {
	z := l.Base.id ^ uint64(l.Off)*0x9e3779b97f4a7c15 ^ uint64(l.Stride)*0xbf58476d1ce4e5b9
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Fingerprint returns an order-independent 64-bit digest of the set:
// the incremental member hash folded with the length. Equal sets always
// share a fingerprint; distinct sets collide only with ordinary 64-bit
// probability, which memoizing callers accept.
func (v ValueSet) Fingerprint() uint64 {
	return v.hash ^ uint64(len(v.locs))*0x9e3779b97f4a7c15
}

// Fingerprint returns the location set's identity digest (block
// identity, offset and stride).
func (l LocSet) Fingerprint() uint64 { return hashLoc(l) }

// allResolved reports whether every member is still its own resolved
// form (no base has been subsumed since insertion).
func (v ValueSet) allResolved() bool {
	for _, l := range v.locs {
		if l.Base.fwd != nil {
			return false
		}
	}
	return true
}

// Values constructs a ValueSet from the given members.
func Values(ls ...LocSet) ValueSet {
	var v ValueSet
	for _, l := range ls {
		v.Add(l)
	}
	return v
}

// Add inserts l (resolved) and reports whether it was new.
func (v *ValueSet) Add(l LocSet) bool {
	l = l.Resolve()
	for _, e := range v.locs {
		if e == l {
			return false
		}
	}
	v.locs = append(v.locs, l)
	v.hash ^= hashLoc(l)
	return true
}

// AddAll inserts every member of o and reports whether anything was new.
func (v *ValueSet) AddAll(o ValueSet) bool {
	// Pre-grow once to the union's upper bound instead of paying a
	// doubling chain of reallocations inside Add.
	if n := len(o.locs); n > 0 && cap(v.locs)-len(v.locs) < n {
		need := len(v.locs) + n
		if c := 2 * cap(v.locs); c > need {
			// Keep doubling for sets that union repeatedly, so a chain
			// of AddAlls stays amortized-constant per element.
			need = c
		}
		nl := make([]LocSet, len(v.locs), need)
		copy(nl, v.locs)
		v.locs = nl
	}
	changed := false
	for _, l := range o.locs {
		if v.Add(l) {
			changed = true
		}
	}
	return changed
}

// Has reports whether l is a member (after resolution).
func (v ValueSet) Has(l LocSet) bool {
	l = l.Resolve()
	for _, e := range v.locs {
		if e.Resolve() == l {
			return true
		}
	}
	return false
}

// Len returns the number of members.
func (v ValueSet) Len() int { return len(v.locs) }

// IsEmpty reports whether the set is empty.
func (v ValueSet) IsEmpty() bool { return len(v.locs) == 0 }

// Locs returns the members. The caller must not mutate the result.
func (v ValueSet) Locs() []LocSet { return v.locs }

// Resolved returns the set with all members resolved through subsumption
// forwarding (deduplicated). When no member's base has been subsumed the
// receiver is returned as-is (capacity-clipped so appends by the caller
// cannot write into shared backing storage) — the common case, with no
// allocation.
func (v ValueSet) Resolved() ValueSet {
	if v.allResolved() {
		return ValueSet{locs: v.locs[:len(v.locs):len(v.locs)], hash: v.hash}
	}
	var out ValueSet
	for _, l := range v.locs {
		out.Add(l)
	}
	return out
}

// WithoutNull returns the set minus the null pseudo-location. Null is a
// value, never storage, so the analysis drops it wherever a set names
// write targets or crosses into a callee. A set without null — nearly
// every set — is returned as it is, with no copy.
func (v ValueSet) WithoutNull() ValueSet {
	nulls := 0
	for _, l := range v.locs {
		if l.Base.Kind == NullBlock {
			nulls++
		}
	}
	if nulls == 0 {
		return v
	}
	out := ValueSet{locs: make([]LocSet, 0, len(v.locs)-nulls)}
	for _, l := range v.locs {
		if l.Base.Kind != NullBlock {
			out.locs = append(out.locs, l)
			out.hash ^= hashLoc(l)
		}
	}
	return out
}

// Clone returns an independent copy, with capacity equal to its length.
func (v ValueSet) Clone() ValueSet {
	out := ValueSet{locs: make([]LocSet, len(v.locs)), hash: v.hash}
	copy(out.locs, v.locs)
	return out
}

// Shift returns the set with every member displaced by delta.
func (v ValueSet) Shift(delta int64) ValueSet {
	if delta == 0 {
		// Identity: shifting by zero only re-resolves the members.
		return v.Resolved()
	}
	var out ValueSet
	for _, l := range v.locs {
		out.Add(l.Shift(delta))
	}
	return out
}

// WithStride returns the set with every member widened by stride s.
func (v ValueSet) WithStride(s int64) ValueSet {
	var out ValueSet
	for _, l := range v.locs {
		out.Add(l.WithStride(s))
	}
	return out
}

// Equal reports whether two value sets have the same resolved members.
// When both sets are fully resolved the cached hashes reject mismatches
// in O(1) and confirmation compares members directly, with no allocation.
func (v ValueSet) Equal(o ValueSet) bool {
	if v.allResolved() && o.allResolved() {
		if len(v.locs) != len(o.locs) || v.hash != o.hash {
			return false
		}
	outer:
		for _, l := range v.locs {
			for _, e := range o.locs {
				if e == l {
					continue outer
				}
			}
			return false
		}
		return true
	}
	a, b := v.Resolved(), o.Resolved()
	if len(a.locs) != len(b.locs) {
		return false
	}
	for _, l := range a.locs {
		if !b.Has(l) {
			return false
		}
	}
	return true
}

func (v ValueSet) String() string {
	if len(v.locs) == 0 {
		return "{}"
	}
	s := "{"
	for i, l := range v.locs {
		if i > 0 {
			s += ", "
		}
		s += l.String()
	}
	return s + "}"
}
