package memmod

import (
	"fmt"
	"sort"
	"strconv"
	"sync/atomic"

	"wlpa/internal/cast"
	"wlpa/internal/ctok"
	"wlpa/internal/ctype"
)

// subsumeGen counts parameter subsumptions process-wide. Caches holding
// resolved location or value sets key their validity on it: any Subsume
// can change what Resolve returns for already-stored sets, so a stale
// generation means "re-resolve".
var subsumeGen uint64

// SubsumeGen returns the current subsumption generation.
func SubsumeGen() uint64 { return atomic.LoadUint64(&subsumeGen) }

// blockIDs hands out creation-order block identities (used for cheap
// order-independent value-set hashing; never exposed or ordered on).
var blockIDs uint64

// BlockKind classifies memory blocks.
type BlockKind int

const (
	// LocalBlock is a local variable (always a unique block).
	LocalBlock BlockKind = iota
	// ParamBlock is an extended parameter: the locations reached
	// through an input pointer at procedure entry (paper §2.2, §3.2).
	ParamBlock
	// HeapBlock groups all storage allocated at one static site
	// (never unique).
	HeapBlock
	// GlobalBlock is the real storage of a global variable, visible in
	// the outermost (main/global) name space.
	GlobalBlock
	// FuncBlock represents a function; pointers to it are function-
	// pointer values.
	FuncBlock
	// StringBlock is a string literal's storage.
	StringBlock
	// RetvalBlock is the special local holding a procedure's return
	// value (paper §3).
	RetvalBlock
	// NullBlock is the pseudo-location denoting the null pointer
	// constant. It is not real storage: dereferencing it yields nothing
	// and checkers report it as a NULL dereference. Only created when
	// the analysis runs with null tracking enabled.
	NullBlock
)

var kindNames = [...]string{"local", "param", "heap", "global", "func", "string", "retval", "null"}

func (k BlockKind) String() string { return kindNames[k] }

// Block is a block of memory.
type Block struct {
	Kind BlockKind
	Name string

	// Sym is the originating symbol for locals, globals and functions.
	Sym *cast.Symbol

	// Site is the allocation site for heap blocks.
	Site ctok.Pos

	// Size is the block size in bytes if known, else 0.
	Size int64

	// Type is the declared type if known (locals/globals).
	Type *ctype.Type

	// scalarID caches the interned ID of the block's (Off=0, Stride=0)
	// location set, packed as tag<<32|id where tag identifies the
	// Interner that issued it (see Interner.ExactID). A mismatched tag
	// simply misses; the cache is advisory.
	scalarID atomic.Uint64

	// --- extended parameter state ---

	// Index is the creation order of the parameter within its PTF;
	// PTF matching replays initial points-to entries in this order.
	Index int

	// FuncPtr marks parameters used as call targets; their values
	// become part of the PTF input domain (paper §5.1).
	FuncPtr bool

	// NotUnique marks a parameter that may stand for several actual
	// locations at once, disabling strong updates through it (§4.1).
	NotUnique bool

	// fwd/fwdDelta implement parameter subsumption (paper §3.2,
	// Figures 6 and 7): when a parameter is subsumed, references to it
	// forward to the subsuming parameter at offset+fwdDelta.
	// fwdUnknown records that the delta is unknown, in which case
	// references become stride-1 (unknown position) in the target.
	fwd        *Block
	fwdDelta   int64
	fwdUnknown bool

	// ptrLocCache records the location sets within this block that may
	// contain pointers (paper §3.3), sorted by (offset, stride) with
	// binary-search membership, so that PtrLocs is a pure read and its
	// order never depends on map iteration.
	// Callers must not mutate it.
	ptrLocCache []LocSet

	// fnBound accumulates every value this FuncPtr parameter has been
	// bound to across call sites. Function-pointer resolution follows
	// bindings through frame-local pmaps that the dependency tracker
	// cannot observe, so the engine uses growth of this set (AddFnBound)
	// as the signal that call sites which resolved through this
	// parameter must re-run.
	fnBound ValueSet

	// id is the creation-order identity used for value-set hashing.
	id uint64
}

// finish assigns the creation-order identity of a freshly built block.
func finish(b *Block) *Block {
	b.id = atomic.AddUint64(&blockIDs, 1)
	return b
}

// NewLocal creates a block for a local variable.
func NewLocal(sym *cast.Symbol) *Block {
	return finish(&Block{Kind: LocalBlock, Name: sym.Name, Sym: sym, Size: sym.Type.Sizeof(), Type: sym.Type})
}

// NewGlobal creates the real storage block of a global variable.
func NewGlobal(sym *cast.Symbol) *Block {
	return finish(&Block{Kind: GlobalBlock, Name: sym.Name, Sym: sym, Size: sym.Type.Sizeof(), Type: sym.Type})
}

// NewHeap creates the block for a static allocation site.
func NewHeap(site ctok.Pos) *Block {
	return finish(&Block{Kind: HeapBlock, Name: fmt.Sprintf("heap@%s", site), Site: site})
}

// NewFunc creates the block representing a function value.
func NewFunc(sym *cast.Symbol) *Block {
	return finish(&Block{Kind: FuncBlock, Name: sym.Name, Sym: sym, Type: sym.Type})
}

// NewString creates a block for a string literal.
func NewString(id int, value string) *Block {
	return finish(&Block{Kind: StringBlock, Name: fmt.Sprintf("str%d", id), Size: int64(len(value)) + 1})
}

// NewRetval creates the special return-value block of a procedure.
func NewRetval(proc string) *Block {
	return finish(&Block{Kind: RetvalBlock, Name: "<retval:" + proc + ">", Size: ctype.PointerSize})
}

// NewNull creates the null pseudo-location block. Each analysis owns one
// instance (blocks carry mutable per-analysis state).
func NewNull() *Block {
	return finish(&Block{Kind: NullBlock, Name: "<null>"})
}

// smallInts serves itoa for the common parameter indexes without the
// strconv allocation.
var smallInts = func() [64]string {
	var t [64]string
	for i := range t {
		t[i] = strconv.Itoa(i)
	}
	return t
}()

func itoa(i int) string {
	if i >= 0 && i < len(smallInts) {
		return smallInts[i]
	}
	return strconv.Itoa(i)
}

// NewParam creates an extended parameter. hint names the pointer through
// which the parameter was first reached, following the paper's "1_p"
// naming convention.
func NewParam(index int, hint string) *Block {
	return finish(&Block{Kind: ParamBlock, Name: itoa(index) + "_" + hint, Index: index})
}

// Unique reports whether the block denotes a single run-time memory
// object, enabling strong updates (paper §4.1): locals, globals, string
// literals and the return value always; heap blocks never; extended
// parameters unless marked NotUnique.
func (b *Block) Unique() bool {
	switch b.Kind {
	case LocalBlock, GlobalBlock, RetvalBlock, StringBlock:
		return true
	case ParamBlock:
		return !b.NotUnique
	default:
		return false
	}
}

// Subsume forwards all references of b to target with the given offset
// delta (paper Figures 6–7). unknownDelta records that the relative
// placement is unknown; references then collapse to stride 1.
func (b *Block) Subsume(target *Block, delta int64, unknownDelta bool) {
	if b == target {
		return
	}
	b.fwd = target
	b.fwdDelta = delta
	b.fwdUnknown = unknownDelta
	atomic.AddUint64(&subsumeGen, 1)
	// Pointer-location facts migrate to the subsuming block.
	moved := b.ptrLocCache
	b.ptrLocCache = nil
	for _, pl := range moved {
		ls := LocSet{Base: b, Off: pl.Off, Stride: pl.Stride}.Resolve()
		ls.Base.AddPtrLoc(ls)
	}
}

// Forwarded returns the block b currently forwards to (nil if none).
func (b *Block) Forwarded() *Block { return b.fwd }

// Representative follows the subsumption chain to the live block.
func (b *Block) Representative() *Block {
	for b.fwd != nil {
		b = b.fwd
	}
	return b
}

// AddPtrLoc records that ls (which must be based at this block's
// representative) may contain a pointer. It reports whether the fact is
// new.
func (b *Block) AddPtrLoc(ls LocSet) bool {
	rb := b.Representative()
	ls = ls.Resolve()
	if ls.Base != rb {
		// Caller passed a stale base; record on the representative.
		rb = ls.Base
	}
	nl := LocSet{Base: rb, Off: ls.Off, Stride: ls.Stride}
	old := rb.ptrLocCache
	i := sort.Search(len(old), func(i int) bool {
		if old[i].Off != nl.Off {
			return old[i].Off > nl.Off
		}
		return old[i].Stride >= nl.Stride
	})
	if i < len(old) && old[i] == nl {
		return false
	}
	if i == len(old) && cap(old) > len(old) {
		// Append into spare capacity past the published length:
		// holders of an earlier PtrLocs result (callers insert while
		// iterating one) never look beyond their own length, so filling
		// the next slot and then publishing a longer header cannot
		// disturb them.
		old = old[: i+1 : cap(old)]
		old[i] = nl
		rb.ptrLocCache = old
		return true
	}
	// Out-of-order insert (or no spare room): publish a fresh sorted
	// copy, with slack so subsequent in-order inserts are in-place.
	next := make([]LocSet, 0, 2*len(old)+2)
	next = append(next, old[:i]...)
	next = append(next, nl)
	next = append(next, old[i:]...)
	rb.ptrLocCache = next
	return true
}

// PtrLocs returns the location sets within the block that may contain
// pointers, sorted by offset then stride. The caller must not mutate the
// result.
func (b *Block) PtrLocs() []LocSet {
	return b.Representative().ptrLocCache
}

// NumPtrLocs returns the number of recorded pointer locations.
func (b *Block) NumPtrLocs() int { return len(b.Representative().ptrLocCache) }

// ResetPtrLocs discards the pointer-location cache. Incremental
// re-analysis uses it on shared (global-family) blocks before replaying
// the surviving facts, so that locations written only by discarded
// contexts do not linger.
func (b *Block) ResetPtrLocs() { b.Representative().ptrLocCache = nil }

// AddFnBound accumulates values bound to this function-pointer
// parameter, reporting whether any were new. Like AddPtrLoc, only the
// evaluation context that owns the binding site may call it.
func (b *Block) AddFnBound(vals ValueSet) bool {
	return b.Representative().fnBound.AddAll(vals)
}

func (b *Block) String() string {
	if b == nil {
		return "<nil>"
	}
	return b.Name
}
