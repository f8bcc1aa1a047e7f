// Package difftest is the differential-testing backbone of the
// repository: it cross-checks every interchangeable solver
// configuration against every other and against ground truth, so that
// a soundness or determinism bug in any engine is caught by
// construction rather than by inspection.
//
// The oracle is a lattice of inclusions over one program (CheckProgram):
//
//	interpreter dynamic facts  ⊆  PTF solution       (ground truth vs Wilson & Lam)
//	interpreter dynamic facts  ⊆  Andersen solution  (ground truth vs inclusion baseline)
//	PTF solution               ⊆  Steensgaard        (collapse bounded by unification)
//	Andersen solution          ⊆  Steensgaard        (inclusion refines unification)
//
// at block granularity. The collapsed PTF solution is deliberately not
// compared against Andersen: its query-time resolution context-collapses
// extended-parameter bindings and can exceed direct inclusion (see the
// lattice comment in CheckProgram). The oracle additionally requires
// bit-identical results — PTF counts,
// collapsed solution, checker diagnostics — across the full-pass and
// worklist engines, plus the absence of Error-severity checker
// diagnostics on well-defined programs.
//
// Native Go fuzz targets drive the oracle: FuzzOracleLattice decodes
// (seed, feature bits) into a generated program from
// internal/workload's generator v2 (or one of the benchmark suite
// programs) and asserts the whole lattice; FuzzFrontend feeds mutated
// raw C text through ctok→cpp→cparse→sem and asserts error-not-panic.
//
// On a property failure the statement-level delta-debugging reducer
// (Minimize) shrinks the program while the failure reproduces and
// writes the result to internal/workload/testdata/regressions/, where
// a replay test keeps it green forever.
package difftest
