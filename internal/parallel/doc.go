// Package parallel implements the loop parallelizer used for the
// paper's Table 3 experiment: using the pointer analysis' results it
// decides which loops are safe to run as SPMD parallel loops (formal
// parameters and pointer writes proven unaliased, array writes indexed
// by the induction variable, scalar reductions, side-effect-free
// callees), then combines the static classification with a dynamic
// profile from the interpreter and an SPMD multiprocessor cost model to
// produce the percent-parallel coverage, per-loop granularity, and
// speedups the paper reports.
//
// (This package parallelizes the *analyzed programs*' loops; the
// analysis itself is one sequential walk.)
package parallel
