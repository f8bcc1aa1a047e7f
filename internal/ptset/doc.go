// Package ptset implements the sparse flow-sensitive points-to function
// of the analysis (paper §4.2, after Chase et al.): instead of a full
// points-to map at every program point, each flow-graph node records
// only the location sets whose values change there. Looking up a
// pointer's value searches the nearest dominating record; SSA
// φ-functions are inserted dynamically at dominance frontiers as new
// locations are assigned, and strong updates act as barriers that hide
// earlier assignments to overlapping locations (paper §4.1).
//
// Invariants:
//
//   - Records are per (location, node); a lookup at node n returns the
//     record at the nearest dominator of n that assigns an overlapping
//     location, stopping at a strong-update barrier when the queried
//     location is unique (one concrete object, zero stride).
//   - φ insertion is monotone: once a φ exists for a location at a
//     merge node it is never removed, and its value only grows, so
//     re-evaluation converges.
//   - Weak updates merge into the previous value; strong updates
//     replace it. Only definite single-object assignments may be
//     strong (paper §4.1) — everything reached through a stride or a
//     multi-target pointer is weak.
//   - A PTS, its records and its arena belong to one analysis and are
//     used by one goroutine at a time. Lookups intern their key in the
//     analysis-wide table even on a converged PTS, so reads need that
//     too. A lookup scans the location's records; nothing is memoized.
package ptset
