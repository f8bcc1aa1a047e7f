// Package cfg builds per-procedure flow graphs in "points-to form"
// (paper §4.4): every assignment's source expression carries an extra
// dereference, and expressions are sets of constant location terms and
// nested dereference terms. The package also computes reverse
// postorder, dominator trees and dominance frontiers, which the sparse
// points-to representation relies on (paper §4.2).
//
// Invariants:
//
//   - A procedure's graph is built once and never mutated afterwards;
//     node identity (its index) is stable, which lets the analysis key
//     dirty sets, reader registrations and per-node points-to records
//     by node.
//   - Node order is reverse postorder, so a forward sweep visits
//     definitions before uses on acyclic paths; back edges are exactly
//     the edges a worklist pass must re-traverse.
//   - Dominator and dominance-frontier queries are pure reads, safe
//     from concurrent readers.
//   - Nodes, edge lists and expressions are allocated individually, so
//     a graph lives exactly as long as something references it.
package cfg
