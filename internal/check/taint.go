package check

import (
	"fmt"
	"strings"

	"wlpa/internal/analysis"
	"wlpa/internal/cfg"
	"wlpa/internal/dataflow"
	"wlpa/internal/libsum"
	"wlpa/internal/memmod"
)

// This file implements the taint checker family on the dataflow engine:
// untrusted bytes (environment, input functions) flowing into command
// interpreters ("taintflow") or format strings ("taintfmt"). The
// declarative libsum.TaintSpec names the sources, propagation rules,
// sinks, and sanitizers.
//
// The abstraction tracks DATA taint at block granularity: a cell is
// tainted when the storage may hold attacker-controlled bytes. Pointer
// assignments need no rule — aliasing is the points-to layer's job —
// but loads-then-stores of the bytes themselves (character-copy loops)
// propagate through the Transfer hook. Scalar return values are not
// carriers (a taint summary through `return s[0]` is lost); the shipped
// sources hand back whole buffers, for which this is moot.
//
// Strong updates: an overwrite with clean data (sanitizer, or a copy
// from an untainted source) clears the taint bit only when the
// destination resolves to a single unique block — a heap or summarized
// cell may stand for other storage that keeps its old bytes.
//
// Severity at a sink is per-context: Error when every resolved target
// of the sink argument is tainted, Warning when only some are. The
// cross-context merge downgrades further if other contexts are clean.

const taintedBit dataflow.State = 1

// taintWalk runs the default taint specification over one context.
func taintWalk(c *Ctx, p *analysis.PTF) {
	c.flow("taint", taintClient(c, libsum.Taint()), p)
}

// taintClient builds the dataflow client of one taint specification.
// Its Gen calls are the sources: every other rule needs a tainted
// operand.
func taintClient(c *Ctx, spec *libsum.TaintSpec) dataflow.Client {
	retSrc := map[string]bool{}
	for _, s := range spec.RetSources {
		retSrc[s] = true
	}
	anyTainted := func(cells []*memmod.Block, f dataflow.Fact) bool {
		for _, cell := range cells {
			if f.Get(cell)&taintedBit != 0 {
				return true
			}
		}
		return false
	}
	return dataflow.Client{
		Gen: func(name string) bool {
			_, arg := spec.ArgSources[name]
			return retSrc[name] || arg
		},
		// Havoc is the identity: an unanalyzable (recursive) callee
		// introduces no taint. This under-approximates — a recursive
		// copier is missed — but never alarms falsely.
		Transfer: func(e *dataflow.Engine, w *dataflow.Walk, nd *cfg.Node, f dataflow.Fact) {
			var loads []*memmod.Block
			if nd.Aggregate {
				// Block copy: Src denotes the source locations.
				loads = e.ExprCells(w, nd.Src, nd)
			} else {
				loads = e.LoadCells(w, nd.Src, nd)
			}
			if !anyTainted(loads, f) {
				return
			}
			for _, cell := range e.StoreCells(w, nd.Dst, nd) {
				f.Set(cell, f.Get(cell)|taintedBit)
			}
		},
		Library: func(e *dataflow.Engine, w *dataflow.Walk, nd *cfg.Node, f dataflow.Fact) {
			name := nd.Direct.Name
			if retSrc[name] {
				if cell := e.HeapCell(nd); cell != nil {
					f.Set(cell, taintedBit)
				}
				return
			}
			if idxs, ok := spec.ArgSources[name]; ok {
				for _, i := range idxs {
					for _, cell := range e.ArgCells(w, nd, i) {
						f.Set(cell, f.Get(cell)|taintedBit)
					}
				}
			}
			for _, cp := range spec.Copies[name] {
				var src bool
				if cp.Src < 0 {
					for i := range nd.Args {
						if i != cp.Dst && anyTainted(e.ArgCells(w, nd, i), f) {
							src = true
							break
						}
					}
				} else {
					src = anyTainted(e.ArgCells(w, nd, cp.Src), f)
				}
				dst := e.ArgCells(w, nd, cp.Dst)
				switch {
				case src:
					for _, cell := range dst {
						f.Set(cell, f.Get(cell)|taintedBit)
					}
				case dataflow.Strong(dst) && dst[0].Unique():
					// Overwrite with clean data: strong clear.
					f.Set(dst[0], f.Get(dst[0])&^taintedBit)
				}
			}
			if argIdx, ok := spec.RetCopies[name]; ok {
				if anyTainted(e.ArgCells(w, nd, argIdx), f) {
					if cell := e.HeapCell(nd); cell != nil {
						f.Set(cell, taintedBit)
					}
				}
			}
			if idxs, ok := spec.Sanitizers[name]; ok {
				for _, i := range idxs {
					if cells := e.ArgCells(w, nd, i); dataflow.Strong(cells) && cells[0].Unique() {
						f.Set(cells[0], f.Get(cells[0])&^taintedBit)
					}
				}
			}
			if !e.AtRoot() {
				return
			}
			if i, ok := spec.ExecSinks[name]; ok {
				reportSink(c, e, w, nd, f, "taintflow", name, i, anyTainted)
			}
			if i, ok := spec.FmtSinks[name]; ok {
				reportSink(c, e, w, nd, f, "taintfmt", name, i, anyTainted)
			}
		},
	}
}

// reportSink grades one sink argument: Error when every resolved target
// holds tainted data, Warning when only some do.
func reportSink(c *Ctx, e *dataflow.Engine, w *dataflow.Walk, nd *cfg.Node, f dataflow.Fact,
	check, name string, argIdx int, anyTainted func([]*memmod.Block, dataflow.Fact) bool) {
	cells := e.ArgCells(w, nd, argIdx)
	if !anyTainted(cells, f) {
		return
	}
	var dirty []string
	all := true
	for _, cell := range cells {
		if f.Get(cell)&taintedBit != 0 {
			dirty = append(dirty, cell.Name)
		} else {
			all = false
		}
	}
	sev := Warning
	if all {
		sev = Error
	}
	what := "command"
	if check == "taintfmt" {
		what = "format string"
	}
	c.report(check, nd.Pos, sev,
		fmt.Sprintf("untrusted data (%s) reaches %s as a %s", strings.Join(dirty, ", "), name, what))
}
