package ptset

import (
	"testing"

	"wlpa/internal/cast"
	"wlpa/internal/cfg"
	"wlpa/internal/cparse"
	"wlpa/internal/ctype"
	"wlpa/internal/memmod"
	"wlpa/internal/sem"
)

// buildProc compiles src and returns the flow graph of fn.
func buildProc(t testing.TB, src, fn string) *cfg.Proc {
	t.Helper()
	f, err := cparse.ParseSource("t.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := sem.Check(f)
	if err != nil {
		t.Fatalf("sem: %v", err)
	}
	proc, err := cfg.Build(prog.FuncByName[fn])
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	return proc
}

var testBlocks = map[string]*memmod.Block{}

// loc returns a (memoized) scalar location set named name; blocks are
// identified by pointer, so the same name must yield the same block.
func loc(name string) memmod.LocSet {
	b, ok := testBlocks[name]
	if !ok {
		b = memmod.NewLocal(&cast.Symbol{Kind: cast.SymVar, Name: name, Type: ctype.PointerTo(ctype.IntType)})
		testBlocks[name] = b
	}
	return memmod.Loc(b, 0, 0)
}

// diamondProc returns a proc with an if/else diamond and handles on its
// interesting nodes: fork-side assign chain start, the two branch-side
// nodes, and the join meet.
func diamondProc(t *testing.T) (*cfg.Proc, *cfg.Node, *cfg.Node, *cfg.Node, *cfg.Node) {
	t.Helper()
	p := buildProc(t, `
int a, b;
int *r;
void f(int c) {
    if (c) r = &a; else r = &b;
    r = r;
}`, "f")
	var thenN, elseN, join *cfg.Node
	for _, nd := range p.Nodes {
		if nd.Kind == cfg.MeetNode && len(nd.Preds) == 2 {
			join = nd
		}
	}
	if join == nil {
		t.Fatal("no join")
	}
	for _, pr := range join.Preds {
		if thenN == nil {
			thenN = pr
		} else {
			elseN = pr
		}
	}
	return p, p.Entry, thenN, elseN, join
}

func TestLookupNearestDominating(t *testing.T) {
	p, entry, thenN, _, join := diamondProc(t)
	pts := New(p, memmod.NewInterner())
	l := loc("p")
	v1 := memmod.Values(loc("x"))
	pts.Assign(l, v1, entry, true)
	got, ok := pts.LookupIn(l, join, nil)
	if !ok || !got.Equal(v1) {
		t.Errorf("lookup at join = %v (%v)", got, ok)
	}
	// A record on the then-branch shadows entry only on that path;
	// LookupOut at thenN sees it, LookupIn at join (dominator walk)
	// still sees entry's.
	v2 := memmod.Values(loc("y"))
	pts.Assign(l, v2, thenN, true)
	got, _ = pts.LookupOut(l, thenN, nil)
	if !got.Equal(v2) {
		t.Errorf("LookupOut at then = %v", got)
	}
	got, _ = pts.LookupIn(l, join, nil)
	if !got.Equal(v1) {
		t.Errorf("LookupIn at join must skip non-dominating branch record, got %v", got)
	}
}

func TestLookupInExcludesOwnNode(t *testing.T) {
	p, entry, thenN, _, _ := diamondProc(t)
	pts := New(p, memmod.NewInterner())
	l := loc("p")
	pts.Assign(l, memmod.Values(loc("x")), entry, true)
	pts.Assign(l, memmod.Values(loc("y")), thenN, true)
	in, _ := pts.LookupIn(l, thenN, nil)
	if !in.Equal(memmod.Values(loc("x"))) {
		t.Errorf("LookupIn at assigning node = %v, want entry value", in)
	}
	out, _ := pts.LookupOut(l, thenN, nil)
	if !out.Equal(memmod.Values(loc("y"))) {
		t.Errorf("LookupOut = %v", out)
	}
}

func TestLookupMissing(t *testing.T) {
	p, _, _, _, join := diamondProc(t)
	pts := New(p, memmod.NewInterner())
	if _, ok := pts.LookupIn(loc("q"), join, nil); ok {
		t.Error("lookup of never-assigned loc must report not-found")
	}
}

func TestPhiInsertionAtDominanceFrontier(t *testing.T) {
	p, _, thenN, _, join := diamondProc(t)
	pts := New(p, memmod.NewInterner())
	l := loc("p")
	pts.Assign(l, memmod.Values(loc("x")), thenN, true)
	philocs := pts.PhiLocs(join)
	if len(philocs) != 1 || philocs[0] != l {
		t.Errorf("phi locs at join = %v", philocs)
	}
}

func TestPhiEvaluationMerges(t *testing.T) {
	p, entry, thenN, elseN, join := diamondProc(t)
	pts := New(p, memmod.NewInterner())
	l := loc("p")
	pts.Assign(l, memmod.Values(loc("z")), entry, true)
	pts.Assign(l, memmod.Values(loc("x")), thenN, true)
	pts.Assign(l, memmod.Values(loc("y")), elseN, true)
	// Simulate EvalMeet: merge LookupOut over preds.
	var merged memmod.ValueSet
	for _, pred := range join.Preds {
		v, _ := pts.LookupOut(l, pred, nil)
		merged.AddAll(v)
	}
	pts.AssignPhi(l, merged, join)
	got, _ := pts.LookupOut(l, join, nil)
	want := memmod.Values(loc("x"), loc("y"))
	if !got.Equal(want) {
		t.Errorf("phi merge = %v, want %v", got, want)
	}
}

func TestStrongUpdateBarrier(t *testing.T) {
	p, entry, _, _, join := diamondProc(t)
	pts := New(p, memmod.NewInterner())
	l := loc("p")
	pts.Assign(l, memmod.Values(loc("x")), entry, false)
	pts.Assign(l, memmod.Values(loc("y")), join, true)
	// The strong update at the query node itself must not count.
	if su := pts.FindStrongUpdate(l, join); su != nil {
		t.Errorf("strong update at the query node itself must not count, got %v", su)
	}
	// From a node dominated by the join, the join's strong update is
	// the barrier.
	after := join.Succs[0]
	if su := pts.FindStrongUpdate(l, after); su != join {
		t.Errorf("FindStrongUpdate = %v, want %v", su, join)
	}
	// With the barrier in force, an overlapping location's old value
	// (recorded at entry, before the strong update) is invisible.
	l2 := loc("p_overlap")
	pts.Assign(l2, memmod.Values(loc("z")), entry, false)
	if _, ok := pts.LookupIn(l2, after, join); ok {
		t.Error("barrier must hide records from before the strong update")
	}
	// But the barrier node's own record is visible.
	if got, ok := pts.LookupIn(loc("p"), after, nil); !ok || !got.Equal(memmod.Values(loc("y"))) {
		t.Errorf("value after barrier = %v (%v)", got, ok)
	}
}

func TestStrongReassignReplaces(t *testing.T) {
	p, entry, _, _, _ := diamondProc(t)
	pts := New(p, memmod.NewInterner())
	l := loc("p")
	pts.Assign(l, memmod.Values(loc("x")), entry, true)
	// Re-evaluation with a different value set replaces (strong).
	vals := memmod.Values(loc("y"))
	changed := pts.Assign(l, vals, entry, true)
	if !changed {
		t.Error("replacement should report change")
	}
	// It stores a copy, as a new record does: the engine passes
	// arena-backed scratch, which a kept record would pin.
	if r := pts.RecordAt(l, entry); &r.Vals.Locs()[0] == &vals.Locs()[0] {
		t.Error("strong reassign kept the caller's value set")
	}
	got, _ := pts.LookupOut(l, entry, nil)
	if !got.Equal(memmod.Values(loc("y"))) {
		t.Errorf("strong reassign = %v", got)
	}
	// Weak re-assignment unions.
	pts.Assign(l, memmod.Values(loc("x")), entry, false)
	got, _ = pts.LookupOut(l, entry, nil)
	if got.Len() != 2 {
		t.Errorf("weak union = %v", got)
	}
	// And the record is no longer a strong update.
	if su := pts.FindStrongUpdate(l, entry.Succs[0]); su != nil {
		t.Error("downgraded record must not act as a barrier")
	}
}

func TestAssignChangeDetection(t *testing.T) {
	p, entry, _, _, _ := diamondProc(t)
	pts := New(p, memmod.NewInterner())
	l := loc("p")
	if !pts.Assign(l, memmod.Values(loc("x")), entry, false) {
		t.Error("first assign changes")
	}
	if pts.Assign(l, memmod.Values(loc("x")), entry, false) {
		t.Error("same assign does not change")
	}
	if !pts.Assign(l, memmod.Values(loc("y")), entry, false) {
		t.Error("new value changes")
	}
}

func TestLocationsAndNumRecords(t *testing.T) {
	p, entry, thenN, _, _ := diamondProc(t)
	pts := New(p, memmod.NewInterner())
	pts.Assign(loc("p"), memmod.Values(loc("x")), entry, false)
	pts.Assign(loc("q"), memmod.Values(loc("y")), thenN, false)
	if len(pts.Locations()) != 2 {
		t.Errorf("locations = %v", pts.Locations())
	}
	if pts.NumRecords() != 2 {
		t.Errorf("records = %d", pts.NumRecords())
	}
}

func TestRehomeAfterSubsumption(t *testing.T) {
	p, entry, _, _, _ := diamondProc(t)
	pts := New(p, memmod.NewInterner())
	p1 := memmod.NewParam(1, "a")
	p2 := memmod.NewParam(2, "b")
	l1 := memmod.Loc(p1, 0, 0)
	pts.Assign(l1, memmod.Values(loc("x")), entry, true)
	p1.Subsume(p2, 8, false)
	pts.Rehome()
	got, ok := pts.LookupOut(memmod.Loc(p2, 8, 0), entry, nil)
	if !ok || got.Len() != 1 {
		t.Errorf("after rehome lookup = %v (%v)", got, ok)
	}
	// Old key also resolves to the same record.
	got2, ok2 := pts.LookupOut(l1, entry, nil)
	if !ok2 || !got2.Equal(got) {
		t.Errorf("stale-key lookup = %v (%v)", got2, ok2)
	}
}

func TestPhiLocsDeterministicOrder(t *testing.T) {
	p, _, thenN, _, join := diamondProc(t)
	pts := New(p, memmod.NewInterner())
	for _, n := range []string{"c", "a", "b"} {
		pts.Assign(loc(n), memmod.Values(loc("x")), thenN, false)
	}
	got := pts.PhiLocs(join)
	if len(got) != 3 {
		t.Fatalf("phis = %v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Base.Name > got[i].Base.Name {
			t.Errorf("phi locs not sorted: %v", got)
		}
	}
}

var _ = ctype.IntType
