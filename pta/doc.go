// Package pta is the public API of wlpa: a context-sensitive pointer
// analysis for C programs implementing Wilson & Lam's
// partial-transfer-function algorithm (PLDI 1995).
//
// Typical use:
//
//	res, err := pta.AnalyzeSource("prog.c", src, nil)
//	if err != nil { ... }
//	targets := res.PointsTo("p")           // may-point-to of global p
//	aliased := res.MayAlias("p", "q")      // may p and q point to the same object?
//	edges := res.CallGraph()               // call graph incl. function pointers
//	fmt.Println(res.Stats().AvgPTFs())     // PTFs per procedure
//
// Pass an Options value to tune the engine. The defaults reproduce the
// paper's configuration; Options.ForceFullPasses selects the slower
// full-pass engine used as a cross-check. Each analysis is one
// sequential walk that owns all of its memory, so independent analyses
// may run on concurrent goroutines and a dropped Result is garbage.
package pta
