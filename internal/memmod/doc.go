// Package memmod implements the low-level memory representation of the
// Wilson–Lam analysis (paper §3): memory is divided into blocks of
// contiguous storage whose relative positions are undefined, and
// positions within a block are named by location sets (base, offset,
// stride). A location set {b, f, s} names the bytes f + i*s of block b
// for every integer i, so a scalar is {b, f, 0}, an array element
// visited in a loop is {b, f, elemsize}, and a position that has been
// widened to "unknown" is {b, 0, 1}.
//
// A block is a local variable, a heap block named by its static
// allocation site, an extended parameter (including globals viewed from
// inside a procedure), the real storage of a global at the outermost
// frame, a function (for function-pointer values), or a string literal.
//
// Invariants the rest of the analysis relies on:
//
//   - Blocks are interned identities: two location sets refer to the
//     same storage only if their bases' representatives are pointer-
//     equal. Comparing names is never authoritative.
//   - Parameter subsumption (paper §5.3) merges extended parameters
//     that turn out to alias; Representative() follows the forwarding
//     chain to the surviving block, and every lookup resolves through
//     it. Subsumption only ever merges — a forwarding link is never
//     undone — so resolution is monotone.
//   - ValueSet and LocSet are value types with set semantics; merging
//     is commutative and idempotent, which the worklist engine depends
//     on.
//   - Blocks, interners and arenas belong to one analysis and are
//     allocated individually or from that analysis's own chunks, never
//     from process-wide slabs, so a dropped analysis is garbage as a
//     whole. An analysis and its interner are used by one goroutine at
//     a time: even its read paths intern and fill caches.
package memmod
