package analysis_test

import (
	"strings"
	"testing"

	"wlpa/internal/analysis"
	"wlpa/internal/cast"
	"wlpa/internal/cfg"
	"wlpa/internal/memmod"
	"wlpa/internal/sem"
)

// lineOf returns the 1-based line of the first source line containing
// marker.
func lineOf(t *testing.T, src, marker string) int {
	t.Helper()
	for i, ln := range strings.Split(src, "\n") {
		if strings.Contains(ln, marker) {
			return i + 1
		}
	}
	t.Fatalf("marker %q not in source", marker)
	return 0
}

// derefStoreAt finds the assign node on the given line whose destination
// is a dereference, returning the node and the dereferencing expression
// (which evaluates to the pointer's targets — the write locations).
func derefStoreAt(t *testing.T, p *analysis.PTF, line int) (*cfg.Node, *cfg.Expr) {
	t.Helper()
	for _, nd := range p.Proc.Nodes {
		if nd.Kind != cfg.AssignNode || nd.Pos.Line != line || nd.Dst == nil {
			continue
		}
		for _, term := range nd.Dst.Terms {
			if term.Kind == cfg.TermDeref {
				return nd, nd.Dst
			}
		}
	}
	t.Fatalf("no dereferencing store on line %d", line)
	return nil, nil
}

// TestSingletonPointee pins the strong-update predicate: a pointer with
// exactly one non-null target resolves to it; a branch-merged pointer
// does not.
func TestSingletonPointee(t *testing.T) {
	src := `
int x;
int y;
int flag;
int *p;
int *q;
int main(void) {
    p = &x;
    q = p;
    *q = 1;
    if (flag)
        p = &y;
    *p = 2;
    return 0;
}`
	a, _ := run(t, src)
	m := a.MainPTF()

	nd1, eq := derefStoreAt(t, m, lineOf(t, src, "*q = 1"))
	loc, ok := a.SingletonPointee(m, eq, nd1)
	if !ok {
		t.Fatal("q with a single target not recognized as singleton")
	}
	if loc.Base.Name != "x" || loc.Off != 0 {
		t.Fatalf("SingletonPointee(q) = %v, want x+0", loc)
	}

	nd2, ep := derefStoreAt(t, m, lineOf(t, src, "*p = 2"))
	if _, ok := a.SingletonPointee(m, ep, nd2); ok {
		t.Fatal("branch-merged p recognized as singleton")
	}
}

// TestMustAlias pins the must-alias query: two pointers that both must
// point at the same unique global alias; after one of them is merged
// over a branch they no longer must-alias.
func TestMustAlias(t *testing.T) {
	src := `
int x;
int y;
int flag;
int *p;
int *q;
int main(void) {
    p = &x;
    q = p;
    *q = 1;
    if (flag)
        p = &y;
    *p = 2;
    return 0;
}`
	a, _ := run(t, src)
	m := a.MainPTF()
	nd1, eq := derefStoreAt(t, m, lineOf(t, src, "*q = 1"))
	nd2, ep := derefStoreAt(t, m, lineOf(t, src, "*p = 2"))

	if !a.MustAlias(m, eq, ep, nd1) {
		t.Error("p and q both pointing at x do not must-alias before the branch")
	}
	if a.MustAlias(m, eq, ep, nd2) {
		t.Error("p merged over a branch still must-aliases q")
	}
}

// TestSingletonPointeeBlockLevel pins the predicate over block-level
// (stride-1) values: a pointer advanced in a loop holds its block at an
// imprecise offset, which must never be treated as a single storable
// location — neither by SingletonPointee nor by MustAlias, even against
// itself.
func TestSingletonPointeeBlockLevel(t *testing.T) {
	src := `
char buf[16];
int n;
char *cp;
char *cq;
int main(void) {
    int i;
    cp = buf;
    for (i = 0; i < n; i++)
        cp = cp + 1;
    cq = cp;
    *cp = 1;
    *cq = 2;
    return 0;
}`
	a, _ := run(t, src)
	m := a.MainPTF()

	nd1, ecp := derefStoreAt(t, m, lineOf(t, src, "*cp = 1"))
	// The loop-carried pointer still targets only buf…
	vals := a.EvalAt(m, ecp, nd1)
	sawStride := false
	for _, l := range vals.Locs() {
		if l.Resolve().Base.Name != "buf" {
			t.Fatalf("loop-advanced cp points at %v, want only buf", l)
		}
		if l.Resolve().Stride != 0 {
			sawStride = true
		}
	}
	if !sawStride {
		t.Fatal("loop-advanced cp never widened to a block-level (stride) value; the test lost its subject")
	}
	// …but at no single location: strong updates through it are out.
	if loc, ok := a.SingletonPointee(m, ecp, nd1); ok {
		t.Fatalf("block-level cp reported singleton %v", loc)
	}
	nd2, ecq := derefStoreAt(t, m, lineOf(t, src, "*cq = 2"))
	if a.MustAlias(m, ecp, ecq, nd2) {
		t.Fatal("two block-level views of buf reported must-alias")
	}
	if a.MustAlias(m, ecp, ecp, nd2) {
		t.Fatal("block-level cp must-aliases itself")
	}
}

// TestQueryEmptyLocations pins the query layer's empty-set conventions:
// locations never demanded during the analysis answer empty instead of
// materializing input-domain entries, null contents are empty, and the
// singleton/alias predicates refuse pointers with empty points-to sets.
func TestQueryEmptyLocations(t *testing.T) {
	src := `
int used;
int unused;
int *p;
int *dead;
int main(void) {
    p = &used;
    *p = 1;
    return 0;
}`
	a, prog := run(t, src)
	m := a.MainPTF()
	exit := m.Proc.Exit

	for _, name := range []string{"unused", "dead"} {
		var sym *cast.Symbol
		for _, g := range prog.Globals {
			if g.Name == name {
				sym = g
			}
		}
		if sym == nil {
			t.Fatalf("global %s not in program", name)
		}
		loc := a.VarLoc(m, sym, 0, 0)
		if got := a.ContentsAt(m, loc, exit); !got.IsEmpty() {
			t.Errorf("ContentsAt(%s) = %v, want empty (never demanded)", name, got)
		}
		if got := a.ContentsAfter(m, loc, exit); !got.IsEmpty() {
			t.Errorf("ContentsAfter(%s) = %v, want empty (never demanded)", name, got)
		}
		// Block-level widening of an undemanded location is empty too.
		if got := a.ContentsAt(m, loc.Unknown(), exit); !got.IsEmpty() {
			t.Errorf("ContentsAt(%s, block-level) = %v, want empty", name, got)
		}
	}
	if got := a.ContentsAt(m, memmod.Loc(memmod.NewNull(), 0, 0), exit); !got.IsEmpty() {
		t.Errorf("ContentsAt(null) = %v, want empty", got)
	}
	// A never-assigned pointer has an empty points-to set: no singleton,
	// no alias — not even with itself.
	_, edead := derefStoreAt(t, m, lineOf(t, src, "*p = 1"))
	ndExit := exit
	deadExpr := &cfg.Expr{Terms: []cfg.Term{{Kind: cfg.TermDeref, Base: varExpr(t, prog, "dead")}}}
	if _, ok := a.SingletonPointee(m, deadExpr, ndExit); ok {
		t.Error("empty points-to set reported a singleton pointee")
	}
	if a.MustAlias(m, deadExpr, deadExpr, ndExit) {
		t.Error("pointer with empty points-to set must-aliases itself")
	}
	if a.MustAlias(m, deadExpr, edead, ndExit) {
		t.Error("empty pointer must-aliases an assigned one")
	}
	if got := a.EvalAt(m, nil, ndExit); !got.IsEmpty() {
		t.Errorf("EvalAt(nil) = %v, want empty", got)
	}
}

// varExpr builds the IR expression naming a global variable.
func varExpr(t *testing.T, prog *sem.Program, name string) *cfg.Expr {
	t.Helper()
	for _, g := range prog.Globals {
		if g.Name == name {
			return &cfg.Expr{Terms: []cfg.Term{{Kind: cfg.TermVar, Sym: g}}}
		}
	}
	t.Fatalf("global %s not in program", name)
	return nil
}

// TestCrossContextBindings pins per-site parameter binding under PTF
// reuse: two call sites with disjoint actuals present the same input
// pattern, so the callee's one summary serves both — but BindingsAt
// must still re-derive each edge's own bindings, x never bleeding into
// the py site or vice versa.
func TestCrossContextBindings(t *testing.T) {
	src := `
int x;
int y;
int *px;
int *py;
void store(int **d, int *s) { *d = s; }
int main(void) {
    store(&px, &x);
    store(&py, &y);
    return 0;
}`
	a, _ := run(t, src)
	m := a.MainPTF()
	edges := a.CallEdgesOf(m)
	if len(edges) != 2 {
		t.Fatalf("CallEdgesOf(main) has %d edges, want 2", len(edges))
	}
	// Equivalent input patterns ("d: pointer to global int*, s: pointer
	// to global int") are exactly what PTF reuse exists for: one summary
	// serves both sites.
	if edges[0].Callee != edges[1].Callee {
		t.Logf("note: call sites got separate PTFs (%p, %p)", edges[0].Callee, edges[1].Callee)
	}
	boundNames := func(e analysis.CallEdge) map[string]bool {
		names := map[string]bool{}
		for param, vals := range a.BindingsAt(m, e.Node, e.Callee) {
			if param == nil {
				t.Fatal("nil parameter block in bindings")
			}
			for _, l := range vals.Locs() {
				names[l.Base.Name] = true
			}
		}
		return names
	}
	first, second := boundNames(edges[0]), boundNames(edges[1])
	if !first["x"] || first["y"] {
		t.Errorf("first edge bound %v, want x and not y", first)
	}
	if !second["y"] || second["x"] {
		t.Errorf("second edge bound %v, want y and not x", second)
	}
}

// TestCallEdgesAndBindings pins the call-edge and binding queries the
// dataflow engine is built on: the main context has one resolved edge to
// the callee, and the callee's extended parameter for the actual &x is
// bound to x's storage.
func TestCallEdgesAndBindings(t *testing.T) {
	src := `
int g;
int x;
int *gp;
void callee(int *p) {
    gp = p;
    g = *p;
}
int main(void) {
    callee(&x);
    return 0;
}`
	a, _ := run(t, src)
	m := a.MainPTF()
	edges := a.CallEdgesOf(m)
	if len(edges) != 1 {
		t.Fatalf("CallEdgesOf(main) has %d edges, want 1", len(edges))
	}
	e := edges[0]
	if e.Callee.Proc.Name != "callee" || e.Caller != m {
		t.Fatalf("unexpected edge %s -> %s", e.Caller.Proc.Name, e.Callee.Proc.Name)
	}
	bindings := a.BindingsAt(m, e.Node, e.Callee)
	if len(bindings) == 0 {
		t.Fatal("no bindings at the call edge")
	}
	foundX := false
	for param, vals := range bindings {
		if param == nil {
			t.Fatal("nil parameter block in bindings")
		}
		for _, l := range vals.Locs() {
			if l.Base.Name == "x" {
				foundX = true
			}
		}
	}
	if !foundX {
		t.Fatalf("no extended parameter bound to x; bindings: %v", bindings)
	}
}
