package check

import (
	"fmt"
	"sort"

	"wlpa/internal/analysis"
	"wlpa/internal/cfg"
	"wlpa/internal/ctok"
	"wlpa/internal/dataflow"
	"wlpa/internal/libsum"
	"wlpa/internal/memmod"
)

// This file implements the typestate checker family: a finite-state
// resource-lifecycle analysis driven by a declarative libsum.Protocol
// and executed on the interprocedural dataflow engine. The shipped
// instance is the FILE-handle protocol (use-after-fclose, double
// fclose, handle leak at exit); new protocols are new tables, not new
// code.
//
// The abstraction is must-style: each resource cell (the allocation
// site's heap block) carries a bitmask of lifecycle states it may be
// in; a defect is reported only when the mask is exactly the bad state
// — the violation holds on every path of this context. Branching joins
// ("closed on one arm") widen the mask and go silent, so the checker
// cannot flag well-defined programs. Transitions are applied strongly
// when the argument resolves to a single cell: a heap block is not a
// unique runtime object in general, but the source call re-initializes
// the cell at every allocation, which is the standard allocation-site
// typestate discipline.

// typestateWalk runs the FILE protocol over one calling context.
func typestateWalk(c *Ctx, p *analysis.PTF) {
	c.flow("typestate", protocolClient(c, p, libsum.FileProtocol()), p)
}

// protocolClient builds the dataflow client of one protocol for context
// p. Its Gen calls are the sources and the transitions: a transition on
// an untracked cell marks it too (strongly with the target state,
// weakly with both).
func protocolClient(c *Ctx, p *analysis.PTF, proto *libsum.Protocol) dataflow.Client {
	bit := func(i int) dataflow.State { return dataflow.State(1) << i }
	bad, initial := bit(proto.Bad), bit(proto.Init)
	sources := map[string]bool{}
	for _, s := range proto.Sources {
		sources[s] = true
	}
	return dataflow.Client{
		Gen: func(name string) bool {
			_, trans := proto.Trans[name]
			return sources[name] || trans
		},
		// An unanalyzable write (recursion fallback) leaves a tracked
		// resource in an unknown live-or-dead state: widen to both, so
		// must-reports go silent instead of turning into false alarms.
		Havoc: func(s dataflow.State) dataflow.State {
			if s == 0 {
				return 0
			}
			return s | initial | bad
		},
		Library: func(e *dataflow.Engine, w *dataflow.Walk, nd *cfg.Node, f dataflow.Fact) {
			name := nd.Direct.Name
			if sources[name] {
				if cell := e.HeapCell(nd); cell != nil {
					// A fresh resource: the allocation site
					// re-initializes the cell (strong).
					f.Set(cell, initial)
				}
				return
			}
			if tr, ok := proto.Trans[name]; ok {
				cells := e.ArgCells(w, nd, tr.Arg)
				strong := dataflow.Strong(cells)
				for _, cell := range cells {
					st := f.Get(cell)
					if st == bit(tr.To) && e.AtRoot() {
						c.report("doubleclose", nd.Pos, Error,
							fmt.Sprintf("%s handle %s already %s when passed to %s", proto.Name, cell.Name, proto.States[tr.To], name))
					}
					switch {
					case strong:
						// Single resolved target: after the call the
						// resource is definitely in the target state
						// (even from unknown provenance).
						f.Set(cell, bit(tr.To))
					case st == 0:
						// Weak transition of an untracked cell: it MAY
						// have transitioned — but equally may still be
						// live. Never manufacture a must-state from a
						// may-update.
						f.Set(cell, bit(tr.From)|bit(tr.To))
					default:
						f.Set(cell, st|bit(tr.To))
					}
				}
				return
			}
			if argIdx, ok := proto.Uses[name]; ok {
				for _, cell := range e.ArgCells(w, nd, argIdx) {
					if f.Get(cell) == bad && e.AtRoot() {
						c.report("useafterclose", nd.Pos, Error,
							fmt.Sprintf("%s handle %s used by %s while %s", proto.Name, cell.Name, name, proto.States[proto.Bad]))
					}
				}
			}
		},
		Exit: func(e *dataflow.Engine, w *dataflow.Walk, f dataflow.Fact) {
			// Leak-at-exit is a whole-program property: only the end of
			// main's context walk is program exit.
			if p != c.A.MainPTF() {
				return
			}
			var leaked []*memmod.Block
			for cell, st := range f {
				if st == bit(proto.EndBad) && cell.Kind == memmod.HeapBlock {
					leaked = append(leaked, cell)
				}
			}
			sort.Slice(leaked, func(i, j int) bool { return leaked[i].Name < leaked[j].Name })
			for _, cell := range leaked {
				c.report("fileleak", allocPos(c, cell), Error,
					fmt.Sprintf("%s handle %s still %s when main returns", proto.Name, cell.Name, proto.States[proto.EndBad]))
			}
		},
	}
}

// allocPos maps a heap cell back to its allocation site's position.
func allocPos(c *Ctx, cell *memmod.Block) ctok.Pos {
	for _, s := range c.A.AllocSites() {
		if s.Block.Representative() == cell {
			return s.Node.Pos
		}
	}
	return ctok.Pos{}
}
