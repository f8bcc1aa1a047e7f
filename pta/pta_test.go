package pta

import (
	"errors"
	"strings"
	"testing"
	"time"

	"wlpa/internal/analysis"
	"wlpa/internal/workload"
)

func analyze(t *testing.T, src string) *Result {
	t.Helper()
	res, err := AnalyzeSource("t.c", src, nil)
	if err != nil {
		t.Fatalf("AnalyzeSource: %v", err)
	}
	return res
}

func TestPointsToQuery(t *testing.T) {
	res := analyze(t, `
int x, y, c;
int *p;
int main(void) {
    if (c) p = &x; else p = &y;
    return 0;
}`)
	got := res.PointsTo("p")
	if len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Errorf("PointsTo(p) = %v", got)
	}
}

func TestMayAlias(t *testing.T) {
	res := analyze(t, `
int x, y;
int *p, *q, *r;
int main(void) {
    p = &x;
    q = &x;
    r = &y;
    return 0;
}`)
	if !res.MayAlias("p", "q") {
		t.Error("p and q both point to x")
	}
	if res.MayAlias("p", "r") {
		t.Error("p and r point to different blocks")
	}
}

func TestCallGraphDirect(t *testing.T) {
	res := analyze(t, `
void a(void) {}
void b(void) { a(); }
int main(void) { b(); return 0; }`)
	edges := res.CallGraph()
	want := map[string]bool{"b->a": true, "main->b": true}
	for _, e := range edges {
		delete(want, e.Caller+"->"+e.Callee)
	}
	if len(want) != 0 {
		t.Errorf("missing edges %v in %v", want, edges)
	}
}

func TestCallGraphIndirect(t *testing.T) {
	res := analyze(t, `
int c;
void a(void) {}
void b(void) {}
int main(void) {
    void (*fp)(void);
    if (c) fp = a; else fp = b;
    fp();
    return 0;
}`)
	edges := res.CallGraph()
	got := map[string]bool{}
	for _, e := range edges {
		got[e.Caller+"->"+e.Callee] = true
	}
	if !got["main->a"] || !got["main->b"] {
		t.Errorf("indirect edges missing: %v", edges)
	}
}

func TestStatsAndProcedures(t *testing.T) {
	res := analyze(t, `
int *p; int v;
void f(void) { p = &v; }
int main(void) { f(); return 0; }`)
	st := res.Stats()
	if st.Procedures != 2 {
		t.Errorf("procedures = %d", st.Procedures)
	}
	if res.NumPTFs("f") != 1 {
		t.Errorf("NumPTFs(f) = %d", res.NumPTFs("f"))
	}
	procs := res.Procedures()
	if len(procs) != 2 {
		t.Errorf("Procedures() = %v", procs)
	}
	if res.ParseTime() <= 0 {
		t.Error("parse time missing")
	}
}

func TestPoliciesDiffer(t *testing.T) {
	src := `
int x, y, z, t1, t2;
int *a, *b;
void f(int **p, int **q) { *p = *q; }
int main(void) {
    a = &x; b = &y;
    if (t1) f(&a, &b);
    if (t2) f(&b, &a);
    return 0;
}`
	ptf, err := AnalyzeSource("t.c", src, &Options{Policy: PartialTransferFunctions})
	if err != nil {
		t.Fatal(err)
	}
	emami, err := AnalyzeSource("t.c", src, &Options{Policy: ReanalyzeEveryContext})
	if err != nil {
		t.Fatal(err)
	}
	if ptf.NumPTFs("f") >= emami.NumPTFs("f")+1 {
		t.Errorf("PTF policy should produce no more summaries: ptf=%d emami=%d",
			ptf.NumPTFs("f"), emami.NumPTFs("f"))
	}
}

func TestMultiFileAnalyze(t *testing.T) {
	files := Source{
		"main.c": `
#include "lib.h"
int *p;
int main(void) { p = target(); return 0; }`,
		"lib.h": `
int g;
int *target(void) { return &g; }`,
	}
	res, err := Analyze(files, "main.c", nil)
	if err != nil {
		t.Fatal(err)
	}
	got := res.PointsTo("p")
	if len(got) != 1 || got[0] != "g" {
		t.Errorf("p -> %v", got)
	}
}

func TestPointsToField(t *testing.T) {
	res := analyze(t, `
struct pair { int *a; int *b; };
int x, y;
struct pair pr;
int main(void) {
    pr.a = &x;
    pr.b = &y;
    return 0;
}`)
	if got := res.PointsToField("pr", 0); len(got) != 1 || got[0] != "x" {
		t.Errorf("pr.a -> %v", got)
	}
	if got := res.PointsToField("pr", 8); len(got) != 1 || got[0] != "y" {
		t.Errorf("pr.b -> %v", got)
	}
}

func TestPointsToUnknownGlobal(t *testing.T) {
	res := analyze(t, `
int x;
int *p;
int main(void) { p = &x; return 0; }`)
	if got := res.PointsTo("nosuch"); got != nil {
		t.Errorf("PointsTo(nosuch) = %v, want nil", got)
	}
	if got := res.PointsToField("nosuch", 0); got != nil {
		t.Errorf("PointsToField(nosuch, 0) = %v, want nil", got)
	}
	if res.MayAlias("nosuch", "p") || res.MayAlias("p", "nosuch") {
		t.Error("MayAlias with an unknown name must be false")
	}
}

func TestPointsToFieldOddOffsets(t *testing.T) {
	res := analyze(t, `
struct pair { int *a; int *b; };
int x, y;
struct pair pr;
int main(void) {
    pr.a = &x;
    pr.b = &y;
    return 0;
}`)
	// Offsets between the pointer fields hold no pointers.
	if got := res.PointsToField("pr", 4); len(got) != 0 {
		t.Errorf("pr+4 -> %v, want empty", got)
	}
	// Negative offsets lie outside the block.
	if got := res.PointsToField("pr", -8); len(got) != 0 {
		t.Errorf("pr-8 -> %v, want empty", got)
	}
}

func TestPointsToFieldStride(t *testing.T) {
	res := analyze(t, `
int x;
int *arr[4];
int i;
int main(void) {
    arr[i] = &x;
    return 0;
}`)
	// The store lands at an unknown element: a strided location set
	// covering every multiple of the element size.
	if got := res.PointsToField("arr", 16); len(got) != 1 || got[0] != "x" {
		t.Errorf("arr+16 -> %v, want [x]", got)
	}
	// Offsets that are not a multiple of the stride are not covered.
	if got := res.PointsToField("arr", 4); len(got) != 0 {
		t.Errorf("arr+4 -> %v, want empty", got)
	}
}

func TestPointsToAtFlowSensitive(t *testing.T) {
	res := analyze(t, `
int x, y;
int main(void) {
    int *p = &x;
    p = &y;
    return 0;
}`)
	if got := res.PointsToAt("main", 4, "p"); len(got) != 1 || got[0] != "x" {
		t.Errorf("p at line 4 -> %v, want [x]", got)
	}
	if got := res.PointsToAt("main", 5, "p"); len(got) != 1 || got[0] != "y" {
		t.Errorf("p at line 5 -> %v, want [y]", got)
	}
}

func TestPointsToAtStars(t *testing.T) {
	res := analyze(t, `
int x;
int *p;
int **pp;
int main(void) {
    p = &x;
    pp = &p;
    return 0;
}`)
	if got := res.PointsToAt("main", 7, "pp"); len(got) != 1 || got[0] != "p" {
		t.Errorf("pp -> %v, want [p]", got)
	}
	if got := res.PointsToAt("main", 7, "*pp"); len(got) != 1 || got[0] != "x" {
		t.Errorf("*pp -> %v, want [x]", got)
	}
}

func TestPointsToAtFormalMergesContexts(t *testing.T) {
	res := analyze(t, `
int x, y;
int *keep;
int *ident(int *q) { keep = q; return q; }
int main(void) {
    int *a = ident(&x);
    int *b = ident(&y);
    return 0;
}`)
	got := res.PointsToAt("ident", 4, "q")
	if len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Errorf("q -> %v, want [x y] (both contexts)", got)
	}
}

func TestPointsToAtUnknown(t *testing.T) {
	res := analyze(t, `
int x;
int *p;
int main(void) { p = &x; return 0; }`)
	if got := res.PointsToAt("nosuch", 1, "p"); got != nil {
		t.Errorf("unknown proc -> %v, want nil", got)
	}
	if got := res.PointsToAt("main", 4, "nosuch"); got != nil {
		t.Errorf("unknown var -> %v, want nil", got)
	}
}

func TestCheckAPI(t *testing.T) {
	res := analyze(t, `
int result;
int main(void) {
    int *p = 0;
    result = *p;
    return 0;
}`)
	diags, err := res.Check(nil)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	found := false
	for _, d := range diags {
		if d.Check == "nullderef" && d.Sev == SevError {
			found = true
			if d.Proc != "main" || d.Pos.Line != 5 {
				t.Errorf("diagnostic misplaced: %+v", d)
			}
		}
	}
	if !found {
		t.Errorf("no nullderef error in %v", diags)
	}
	// Restricting the check set suppresses the diagnostic.
	diags, err = res.Check(&CheckOptions{Checks: []string{"badcall"}})
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if len(diags) != 0 {
		t.Errorf("selected badcall only, got %v", diags)
	}
}

// TestCheckHonorsTimeout pins the checker under Options.Timeout: the
// analysis and Check's context walks share one budget, counted from the
// start of the analysis, so a program whose checking takes seconds (a
// generated program whose contexts reach fopen and getenv) fails fast
// with ErrTimeout and no diagnostics.
func TestCheckHonorsTimeout(t *testing.T) {
	cfg := workload.FuzzGenConfig(20, uint32(workload.AllFeatures()))
	cfg.NumFuncs, cfg.StmtsPerFunc = 6, 10
	src := workload.Generate(cfg)
	// The smallest doubling of 100 ms that the analysis alone fits in:
	// a slow host cannot spend the whole budget before Check starts,
	// and what is left is less than the analysis took, a small part
	// of what checking this program takes.
	var res *Result
	for budget := 100 * time.Millisecond; res == nil; budget *= 2 {
		r, err := AnalyzeSource("t.c", src, &Options{Timeout: budget})
		switch {
		case err == nil:
			res = r
		case !errors.Is(err, analysis.ErrTimeout) || budget > time.Minute:
			t.Fatalf("AnalyzeSource under a %v budget: %v", budget, err)
		}
	}
	start := time.Now()
	diags, err := res.Check(nil)
	elapsed := time.Since(start)
	if !errors.Is(err, analysis.ErrTimeout) {
		t.Fatalf("Check with a 100ms budget returned %d diagnostics and err %v, want ErrTimeout", len(diags), err)
	}
	if diags != nil {
		t.Errorf("timed-out Check returned partial diagnostics: %v", diags)
	}
	if elapsed > time.Second {
		t.Errorf("timed-out Check took %v, want under 1s", elapsed)
	}
}

func TestDescribe(t *testing.T) {
	res := analyze(t, `
int x;
int *p;
int main(void) { p = &x; return 0; }`)
	out := res.Describe()
	if !strings.Contains(out, "p -> [x]") {
		t.Errorf("Describe output:\n%s", out)
	}
}

func TestParseErrorSurfaces(t *testing.T) {
	if _, err := AnalyzeSource("t.c", "int main( {", nil); err == nil {
		t.Error("expected parse error")
	}
}

func TestPredefinedMacros(t *testing.T) {
	res, err := AnalyzeSource("t.c", `
int x, y;
int *p;
int main(void) {
#ifdef PICK_X
    p = &x;
#else
    p = &y;
#endif
    return 0;
}`, &Options{Predefined: map[string]string{"PICK_X": "1"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.PointsTo("p"); len(got) != 1 || got[0] != "x" {
		t.Errorf("p -> %v", got)
	}
}

func TestMaxPTFsGeneralizes(t *testing.T) {
	src := `
int x, y, z;
int *a, *b, *c;
void f(int **p, int **q) { *p = *q; }
int main(void) {
    a = &x; b = &y; c = &z;
    f(&a, &b);
    f(&b, &a);
    f(&a, &a);
    f(&c, &c);
    return 0;
}`
	res, err := AnalyzeSource("t.c", src, &Options{MaxPTFs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if n := res.NumPTFs("f"); n > 2 {
		t.Errorf("MaxPTFs=2 but f has %d PTFs", n)
	}
}
