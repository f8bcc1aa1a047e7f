// Package analysis implements the context-sensitive pointer analysis of
// Wilson & Lam (PLDI '95): an iterative flow-sensitive intraprocedural
// analysis whose interprocedural behavior is governed by partial
// transfer functions (PTFs, paper §5).
//
// A PTF summarizes a procedure under the alias relationships (and
// function-pointer input values) that held when it was created, and is
// reused at every call site exhibiting the same input domain (§5.2).
// Extended parameters name the locations reached through input
// pointers; they are created lazily as the walk discovers reads, are
// subsumed when inputs turn out to alias (§5.3), and form the
// procedure's parametrized name space. Because a PTF's summary is
// expressed in terms of its extended parameters, a call whose inputs
// merely have different values — same alias pattern, same pointer
// shape — reuses the summary with no re-evaluation; only structural
// input changes (a new aliasing, an empty input turning non-empty, a
// pointer at a previously unknown location) dirty the PTF. Recursion
// reuses the PTF already on the activation stack (§5.4).
//
// Two evaluation engines produce bit-identical results:
//
//   - The dependency-tracked worklist engine (default): each PTF keeps
//     a dirty-node set; writes notify registered readers, callee
//     version bumps re-dirty recorded call sites, and a pass ends when
//     everything is quiescent.
//   - The full-pass engine (Options.ForceFullPasses): re-evaluates
//     every node of every PTF per pass. Kept as a cross-check; the
//     equivalence tests compare the two on every workload.
//
// Both engines are one sequential walk from main. An Analysis owns all
// of its memory — PTFs, blocks, records, arenas — and shares nothing
// but atomic counters with other analyses, so independent analyses may
// run concurrently and a dropped one is garbage as soon as nothing
// references it.
//
// Key invariants:
//
//   - All per-PTF state transitions are monotone (domains, points-to
//     records, reader registrations only grow), so evaluation order
//     affects cost, never the fixpoint.
//   - The PTF population itself is history-sensitive: a match decision
//     depends on the candidate's input domain at match time. The
//     home-context and siteUsed rules (§5.2) update a latched instance
//     in place instead of minting one per transient input state, which
//     keeps the population independent of evaluation order.
//   - The collapsed Solution is rebuilt from the converged fixpoint,
//     never incrementally from partial states.
package analysis
