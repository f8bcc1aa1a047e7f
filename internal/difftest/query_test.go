package difftest

import (
	"strings"
	"testing"

	"wlpa/internal/workload"
)

// queryPrograms are hand-written inputs for the query rung: strong
// updates, calls and heap blocks, calling contexts, loops with string
// library calls, and a strong update that hides an older weak record
// of an overlapping location (barrier).
var queryPrograms = []struct{ name, src string }{
	{"strong-updates", `
int x; int y; int z; int flag;
int *p; int *q; int **pp;
int main(void) {
    p = &x;
    q = p;
    *q = 1;
    if (flag) p = &y;
    pp = &p;
    *pp = &z;
    *p = 2;
    return 0;
}`},
	{"calls-and-heap", `
#include <stdlib.h>
int g; int *gp; int *hp;
void set(int **dst, int *v) { *dst = v; }
int *mk(void) { return (int*)malloc(sizeof(int)); }
void touch(void) { g = 1; }
int main(void) {
    set(&gp, &g);
    hp = mk();
    touch();
    *hp = *gp;
    return 0;
}`},
	{"contexts", `
int a; int b;
int *pa; int *pb;
void store(int **d, int *s) { *d = s; }
int main(void) {
    store(&pa, &a);
    store(&pb, &b);
    return 0;
}`},
	{"loops-and-strings", `
#include <string.h>
char buf[16]; char *cp; char *name;
int main(void) {
    int i;
    name = "hello";
    cp = buf;
    for (i = 0; i < 8; i++) {
        cp = cp + 1;
        strcpy(buf, name);
    }
    return 0;
}`},
	{"barrier", `
struct S { int *f; int *g; };
int x; int y;
struct S s; struct S *ps;
char *cp;
int *r;
int main(void) {
    cp = (char*)&s;
    *(int**)(cp + 4) = &x;
    s.f = &y;
    r = s.f;
    return 0;
}`},
}

// TestQueryRungOnHandWrittenPrograms runs the query rung over every
// recorded location at every node of queryPrograms, on both engines.
func TestQueryRungOnHandWrittenPrograms(t *testing.T) {
	for _, tc := range queryPrograms {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := Frontend(tc.name, tc.src)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range []engine{{name: "worklist"}, {name: "fullpass", force: true}} {
				fp, err := runEngine(prog, e)
				if err != nil {
					t.Fatalf("%s: %v", e.name, err)
				}
				if detail := queryAgrees(fp.an, 0, 1, refExact); detail != "" {
					t.Errorf("%s: %s", e.name, detail)
				}
			}
		})
	}
}

// TestQueryRungOnSuite runs the query rung over every recorded
// location at every seventh node of each suite program on the worklist
// engine, lex315 included (DecodeInput leaves it out).
func TestQueryRungOnSuite(t *testing.T) {
	for _, b := range workload.Suite() {
		t.Run(b.Name, func(t *testing.T) {
			prog, err := Frontend(b.Name, b.Source)
			if err != nil {
				t.Fatal(err)
			}
			fp, err := runEngine(prog, engine{name: "worklist"})
			if err != nil {
				t.Fatal(err)
			}
			if detail := queryAgrees(fp.an, 0, 7, refExact); detail != "" {
				t.Error(detail)
			}
		})
	}
}

// TestQueryRungCatchesWrongReference mutation-tests the query rung: a
// reference that unions every dominating record, and one that ignores
// the strong-update barrier, must each fail CheckProgram at the query
// stage with the first divergence the rung meets.
func TestQueryRungCatchesWrongReference(t *testing.T) {
	heapName, heapSrc, heapOpt := DecodeInput(0, uint32(workload.FeatHeap))
	barrierSrc := queryPrograms[len(queryPrograms)-1].src
	for _, tc := range []struct {
		m         refMutation
		name, src string
		opt       Options
		want      string
	}{
		{refUnionAll, heapName, heapSrc, heapOpt, "f1 node 3 loc 1_a (out)"},
		{refNoBarrier, "barrier", barrierSrc, Options{}, "main node 6 loc s (in)"},
	} {
		tc.opt.queryRef = tc.m
		err := CheckProgram(tc.name, tc.src, tc.opt)
		fl, ok := err.(*Failure)
		if !ok || fl.Stage != StageQuery || !strings.Contains(fl.Detail, tc.want) {
			t.Errorf("reference mutation %d on %s: got %v, want a %s failure at %q", tc.m, tc.name, err, StageQuery, tc.want)
		}
	}
}
