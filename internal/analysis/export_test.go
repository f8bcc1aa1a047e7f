package analysis

import (
	"wlpa/internal/cfg"
	"wlpa/internal/memmod"
)

// EdgeBindings derives one call edge's parameter bindings afresh: the
// reference the test of BindingsAt's shared bindings compares against.
func (a *Analysis) EdgeBindings(caller *PTF, nd *cfg.Node, callee *PTF) map[*memmod.Block]memmod.ValueSet {
	return a.edgeBindings(caller, nd, callee)
}
