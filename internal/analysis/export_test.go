package analysis

import (
	"time"

	"wlpa/internal/cfg"
	"wlpa/internal/memmod"
)

// EdgeBindings derives one call edge's parameter bindings afresh: the
// reference the test of BindingsAt's shared bindings compares against.
func (a *Analysis) EdgeBindings(caller *PTF, nd *cfg.Node, callee *PTF) map[*memmod.Block]memmod.ValueSet {
	return a.edgeBindings(caller, nd, callee)
}

// PTFsByScan finds a procedure's PTFs by scanning the whole PTF map:
// the reference the O(1) PTFs lookup is tested against.
func (a *Analysis) PTFsByScan(name string) []*PTF {
	for proc, l := range a.ptfs {
		if proc.Name == name {
			return l
		}
	}
	return nil
}

// CollectVisits returns the number of PTF visits the last
// solution-collection pass made, main's included.
func (a *Analysis) CollectVisits() int { return a.collectVisits }

// RunFixpoint is Run stopped before the solution-collection pass: the
// fixpoint alone, with its statistics.
func (a *Analysis) RunFixpoint() error {
	start := time.Now()
	_, err := a.fixpoint(start)
	a.finishStats(start)
	return err
}
