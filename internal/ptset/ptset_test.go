package ptset

import (
	"fmt"
	"math/rand"
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

// member returns the i-th member location of the row tests' shared
// universe.
func member(i int) memmod.LocSet { return loc(fmt.Sprintf("row_m%02d", i)) }

// TestDensePromotionBoundary grows one row a member at a time by weak
// unions, past 16 members, the size at which rows once grew a bitset
// index: after each union the row holds exactly the members added so
// far, and re-adding one it holds reports no change and adds nothing.
func TestDensePromotionBoundary(t *testing.T) {
	p, entry, _, _, _ := diamondProc(t)
	pts := New(p, memmod.NewInterner())
	target := loc("row_grow")
	for i := 0; i < 24; i++ {
		if !pts.Assign(target, memmod.Values(member(i)), entry, false) {
			t.Fatalf("step %d: adding a new member reported no change", i)
		}
		if pts.Assign(target, memmod.Values(member(i/2)), entry, false) {
			t.Fatalf("step %d: re-adding member %d reported a change", i, i/2)
		}
		vals, ok := pts.LookupOut(target, entry, nil)
		if !ok {
			t.Fatalf("step %d: row not found", i)
		}
		if got, want := vals.Len(), i+1; got != want {
			t.Fatalf("step %d: Len = %d, want %d", i, got, want)
		}
		for j := 0; j <= i; j++ {
			if !vals.Has(member(j)) {
				t.Fatalf("step %d: member %d missing", i, j)
			}
		}
	}
}

// TestDensePromotionOnNoGrowthUnion pins the no-growth union on a
// 16-member row: re-adding a member the row holds reports no change
// and leaves the row as it was.
func TestDensePromotionOnNoGrowthUnion(t *testing.T) {
	p, entry, _, _, _ := diamondProc(t)
	pts := New(p, memmod.NewInterner())
	target := loc("row_full")
	for i := 0; i < 16; i++ {
		pts.Assign(target, memmod.Values(member(i)), entry, false)
	}
	if changed := pts.Assign(target, memmod.Values(member(0)), entry, false); changed {
		t.Fatal("re-adding an existing member reported a change")
	}
	vals, _ := pts.LookupOut(target, entry, nil)
	if got := vals.Len(); got != 16 {
		t.Fatalf("Len = %d, want 16", got)
	}
	for i := 0; i < 16; i++ {
		if !vals.Has(member(i)) {
			t.Fatalf("member %d missing", i)
		}
	}
}

// TestRowUnionMatchesModel is the row-union property test: random weak
// unions of batches of 1-10 members from a 40-member universe must
// leave the row equal to a model set.
func TestRowUnionMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	universe := make([]memmod.LocSet, 40)
	for i := range universe {
		universe[i] = member(i)
	}
	for trial := 0; trial < 100; trial++ {
		p, entry, _, _, _ := diamondProc(t)
		pts := New(p, memmod.NewInterner())
		target := loc(fmt.Sprintf("row_trial%d", trial))
		model := map[int]bool{}
		batches := 2 + rng.Intn(6)
		for bi := 0; bi < batches; bi++ {
			var batch memmod.ValueSet
			n := 1 + rng.Intn(10)
			for k := 0; k < n; k++ {
				m := rng.Intn(len(universe))
				batch.Add(universe[m])
				model[m] = true
			}
			pts.Assign(target, batch, entry, false)
			vals, ok := pts.LookupOut(target, entry, nil)
			if !ok {
				t.Fatalf("trial %d: row not found", trial)
			}
			if vals.Len() != len(model) {
				t.Fatalf("trial %d batch %d: Len = %d, model has %d",
					trial, bi, vals.Len(), len(model))
			}
			for m := range model {
				if !vals.Has(universe[m]) {
					t.Fatalf("trial %d batch %d: member %d missing", trial, bi, m)
				}
			}
		}
	}
}

// TestStrongReplaceLargeRow replaces a 20-member row by strong updates
// (down to one member and back), then grows it by a weak union.
func TestStrongReplaceLargeRow(t *testing.T) {
	p, entry, _, _, _ := diamondProc(t)
	pts := New(p, memmod.NewInterner())
	target := loc("row_strong")
	var big memmod.ValueSet
	for i := 0; i < 20; i++ {
		big.Add(member(i))
	}
	pts.Assign(target, big, entry, true)
	small := memmod.Values(member(0))
	pts.Assign(target, small, entry, true)
	vals, _ := pts.LookupOut(target, entry, nil)
	if !vals.Equal(small) {
		t.Fatalf("strong replace = %v, want %v", vals, small)
	}
	pts.Assign(target, big, entry, true)
	pts.Assign(target, memmod.Values(member(21)), entry, false)
	vals, _ = pts.LookupOut(target, entry, nil)
	if got, want := vals.Len(), big.Len()+1; got != want {
		t.Fatalf("Len after strong replace and weak union = %d, want %d", got, want)
	}
}

// TestRehomeMergedRowWeakUnion unions into a row that Rehome merged:
// parameter Q's record is folded into P's record at the same node when
// Q is subsumed into P, and a later weak union of the member Q brought
// must find it there, reporting no change and storing it once. P's row
// is 16 members large and has already taken a no-growth union: on that
// shape a membership index beside the row, which the merge bypassed,
// once reported the member new and stored it twice.
func TestRehomeMergedRowWeakUnion(t *testing.T) {
	p, entry, _, _, _ := diamondProc(t)
	pts := New(p, memmod.NewInterner())
	bp := memmod.NewParam(1, "P")
	bq := memmod.NewParam(2, "Q")
	lp, lq := memmod.Loc(bp, 0, 0), memmod.Loc(bq, 0, 0)
	var row memmod.ValueSet
	for i := 0; i < 16; i++ {
		row.Add(member(i))
	}
	pts.Assign(lp, row, entry, false)
	pts.Assign(lp, row, entry, false)
	m := member(16)
	pts.Assign(lq, memmod.Values(m), entry, false)
	bq.Subsume(bp, 0, false)
	pts.Rehome()

	merged, _ := pts.LookupOut(lp, entry, nil)
	merged = merged.Clone()
	if changed := pts.Assign(lp, memmod.Values(m), entry, false); changed {
		t.Error("weak union of a member the merged row holds reported a change")
	}
	got, _ := pts.LookupOut(lp, entry, nil)
	if got.Len() != 17 {
		t.Errorf("Len = %d, want 17", got.Len())
	}
	n := 0
	for _, l := range got.Locs() {
		if l == m {
			n++
		}
	}
	if n != 1 {
		t.Errorf("the row holds %v %d times, want once", m, n)
	}
	if !got.Equal(merged) {
		t.Errorf("row = %v, want the merged row %v", got, merged)
	}
}

var _ = ctype.IntType
