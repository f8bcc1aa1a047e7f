// Package check implements a pluggable suite of context-sensitive
// pointer-bug checkers on top of the converged PTF analysis.
//
// # Pass framework
//
// A checker is a Pass registered with Register (the builtins register
// themselves in this package's init). A pass declares the check
// identifiers it may emit and implements one or both hooks:
//
//   - ContextWalk runs once per PTF (i.e. once per distinguished
//     calling context) of every procedure. It queries the per-node
//     points-to state through the read-only query API of
//     internal/analysis — and the MOD/REF summary table via Ctx.ModRef
//     — and reports verdicts with Ctx.report. Contexts are walked one
//     after another on the calling goroutine, in declaration order.
//   - Program runs once, after all context walks, and sees the whole
//     converged picture (call graph, every context, the collapsed
//     solution). It assigns severities itself via Ctx.reportProgram.
//     The leak checker is a Program pass: leaking is a whole-program
//     property, not a per-context one.
//
// # Dataflow passes
//
// The typestate and taint passes run clients of internal/dataflow. Each
// client names its Gen calls, the library calls that can create its
// state from an empty fact. A run computes each client's Gen
// reachability over the call graph once and reuses it for every
// context, so contexts that can only see empty facts are not walked.
//
// # Budget
//
// Run stops at the analysis' deadline (analysis.Analysis.Deadline, set
// from Options.Timeout), between contexts and inside dataflow walks, and
// returns analysis.ErrTimeout with no diagnostics.
//
// # Severity
//
// Context sensitivity is used for precision: a ContextWalk site is
// reported with Error severity only when every calling context of the
// procedure exhibits the defect; a defect present in some contexts but
// not others is downgraded to Warning.
//
// # Output
//
// Run returns diagnostics sorted by position and deduplicated.
// RenderJSON and RenderSARIF (SARIF 2.1.0) serialize them;
// Fingerprint/WriteBaseline/LoadBaseline/Suppress implement baseline
// suppression keyed on stable diagnostic fingerprints.
//
// The checkers read the same converged analysis every other query
// reads. It tracks null as a value (the <null> pseudo-location), so
// "definitely null" differs from "uninitialized", without a second
// analysis: null never names storage or enters a callee, so it splits
// no PTF. They expect Options.CollectSolution set (for concretizing
// extended parameters in messages and resolving parameter-folded write
// targets) and degrade gracefully without it.
//
// Checkers run only after the analysis has converged, so they observe a
// single consistent fixpoint regardless of which engine (full-pass or
// worklist) produced it. Reading the analysis still writes its intern
// table, so one analysis is checked by one goroutine at a time.
package check
