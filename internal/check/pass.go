package check

import (
	"fmt"

	"wlpa/internal/analysis"
	"wlpa/internal/cfg"
)

// A Pass is one pluggable checker. A pass declares the check
// identifiers it may emit (selection via Options.Checks is by check
// identifier, not pass name) and implements one or both hooks:
//
//   - ContextWalk runs once per analyzed calling context (PTF). Its
//     verdicts are merged across contexts: a defect present in every
//     context of a procedure is an Error, otherwise a Warning.
//   - Program runs once, after all context walks, and sees the whole
//     converged picture (call graph, every context, solution). It
//     decides diagnostic severities itself.
type Pass struct {
	// Name identifies the pass (unique across the registry).
	Name string
	// Doc is a one-line description.
	Doc string
	// Checks lists the check identifiers this pass may report.
	Checks []string
	// ContextWalk checks one calling context; may be nil.
	ContextWalk func(c *Ctx, p *analysis.PTF)
	// Program checks the whole program; may be nil.
	Program func(c *Ctx)
}

var (
	registry []*Pass
	// All lists every registered check identifier in registration
	// order. It is the universe for Options.Checks.
	All []string
)

// Register adds a pass to the registry. Pass names and check
// identifiers must be unique; at least one hook must be set.
func Register(p *Pass) error {
	if p.Name == "" || (p.ContextWalk == nil && p.Program == nil) {
		return fmt.Errorf("check: pass %q must have a name and a hook", p.Name)
	}
	if len(p.Checks) == 0 {
		return fmt.Errorf("check: pass %q declares no checks", p.Name)
	}
	known := map[string]bool{}
	for _, id := range All {
		known[id] = true
	}
	for _, q := range registry {
		if q.Name == p.Name {
			return fmt.Errorf("check: duplicate pass %q", p.Name)
		}
	}
	for _, id := range p.Checks {
		if known[id] {
			return fmt.Errorf("check: pass %q re-declares check %q", p.Name, id)
		}
	}
	registry = append(registry, p)
	All = append(All, p.Checks...)
	return nil
}

// Passes returns the registered passes in registration order.
func Passes() []*Pass {
	out := make([]*Pass, len(registry))
	copy(out, registry)
	return out
}

func mustRegister(p *Pass) {
	if err := Register(p); err != nil {
		panic(err)
	}
}

// The builtin passes. Registration order fixes the order of All and the
// within-context evaluation order.
func init() {
	mustRegister(&Pass{
		Name: "deref",
		Doc:  "dereferences of NULL, uninitialized, or freed pointers",
		Checks: []string{
			"nullderef", "uninitderef", "useafterfree",
		},
		ContextWalk: derefWalk,
	})
	mustRegister(&Pass{
		Name:        "doublefree",
		Doc:         "frees of storage already freed on every path",
		Checks:      []string{"doublefree"},
		ContextWalk: func(c *Ctx, p *analysis.PTF) { c.checkDoubleFree(p) },
	})
	mustRegister(&Pass{
		Name:        "escape",
		Doc:         "addresses of locals escaping their activation",
		Checks:      []string{"localescape"},
		ContextWalk: escapeWalk,
	})
	mustRegister(&Pass{
		Name:        "badcall",
		Doc:         "indirect calls through non-function values",
		Checks:      []string{"badcall"},
		ContextWalk: badcallWalk,
	})
	mustRegister(&Pass{
		Name:        "writero",
		Doc:         "writes into read-only string literals",
		Checks:      []string{"writero"},
		ContextWalk: writeroWalk,
	})
	mustRegister(&Pass{
		Name:    "leak",
		Doc:     "heap storage neither freed nor reachable at exit",
		Checks:  []string{"leak"},
		Program: leakProgram,
	})
	mustRegister(&Pass{
		Name:        "typestate",
		Doc:         "FILE-handle lifecycle (use after fclose, double fclose, handle leak)",
		Checks:      []string{"useafterclose", "doubleclose", "fileleak"},
		ContextWalk: typestateWalk,
	})
	mustRegister(&Pass{
		Name:        "taint",
		Doc:         "untrusted data reaching command or format-string sinks",
		Checks:      []string{"taintflow", "taintfmt"},
		ContextWalk: taintWalk,
	})
}

// derefWalk checks every pointer dereference of the context. In
// points-to form every source expression carries an extra dereference,
// so each C-level pointer dereference appears as a TermDeref whose base
// expression denotes the dereferenced pointer value; destinations
// additionally perform an implicit store-through for their top-level
// deref terms.
func derefWalk(c *Ctx, p *analysis.PTF) {
	for _, nd := range p.Proc.Nodes {
		switch nd.Kind {
		case cfg.AssignNode:
			c.checkReads(p, nd, nd.Src)
			c.checkReads(p, nd, nd.Dst)
			c.checkStores(p, nd, nd.Dst)
		case cfg.CallNode:
			for _, arg := range nd.Args {
				c.checkReads(p, nd, arg)
			}
			if nd.Fun != nil {
				c.checkReads(p, nd, nd.Fun)
			}
			if nd.RetDst != nil {
				c.checkReads(p, nd, nd.RetDst)
				c.checkStores(p, nd, nd.RetDst)
			}
		}
	}
}

func escapeWalk(c *Ctx, p *analysis.PTF) {
	for _, nd := range p.Proc.Nodes {
		if nd.Kind == cfg.AssignNode {
			c.checkStoreEscape(p, nd)
		}
	}
	c.checkRetvalEscape(p)
}

func badcallWalk(c *Ctx, p *analysis.PTF) {
	for _, nd := range p.Proc.Nodes {
		if nd.Kind == cfg.CallNode && nd.Fun != nil {
			c.checkBadCall(p, nd)
		}
	}
}
