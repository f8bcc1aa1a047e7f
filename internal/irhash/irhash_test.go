package irhash

import (
	"fmt"
	"strings"
	"testing"

	"wlpa/internal/cparse"
	"wlpa/internal/sem"
	"wlpa/internal/workload"
)

func hashSource(t *testing.T, src string) *Program {
	t.Helper()
	f, err := cparse.ParseSource("t.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := sem.Check(f)
	if err != nil {
		t.Fatalf("sem: %v", err)
	}
	h, err := Hash(prog)
	if err != nil {
		t.Fatalf("hash: %v", err)
	}
	return h
}

const base = `
int x, y;
int *gp;
void leaf(int **q) { *q = &x; }
void mid(void) { leaf(&gp); }
void other(void) { gp = &y; }
int main(void) { mid(); other(); return 0; }
`

func TestDeterminism(t *testing.T) {
	a := hashSource(t, base)
	b := hashSource(t, base)
	if a.Root != b.Root || a.Globals != b.Globals {
		t.Fatalf("program digest not deterministic: %s vs %s", a.Root, b.Root)
	}
	for i := range a.Procs {
		if a.Procs[i] != b.Procs[i] {
			t.Fatalf("proc digest not deterministic: %+v vs %+v", a.Procs[i], b.Procs[i])
		}
	}
}

func TestEditLocality(t *testing.T) {
	a := hashSource(t, base)
	// Edit other's body without shifting any other procedure's lines.
	edited := strings.Replace(base, "void other(void) { gp = &y; }", "void other(void) { gp = &x; }", 1)
	b := hashSource(t, edited)

	if a.Root == b.Root {
		t.Fatalf("root digest unchanged after edit")
	}
	if a.Globals != b.Globals {
		t.Fatalf("globals digest changed by a procedure-body edit")
	}
	changedIR := map[string]bool{}
	changedClosure := map[string]bool{}
	for _, pa := range a.Procs {
		pb := b.ProcHash(pa.Name)
		if pb == nil {
			t.Fatalf("procedure %s missing after edit", pa.Name)
		}
		if pa.IR != pb.IR {
			changedIR[pa.Name] = true
		}
		if pa.Closure != pb.Closure {
			changedClosure[pa.Name] = true
		}
	}
	if len(changedIR) != 1 || !changedIR["other"] {
		t.Fatalf("IR digests changed for %v, want only [other]", changedIR)
	}
	// Closure change propagates to the editing procedure and its
	// transitive callers (main), and nothing else: leaf and mid are
	// untouched.
	want := map[string]bool{"other": true, "main": true}
	for name := range changedClosure {
		if !want[name] {
			t.Fatalf("closure digest of %s changed; changed set %v, want %v", name, changedClosure, want)
		}
	}
	for name := range want {
		if !changedClosure[name] {
			t.Fatalf("closure digest of %s did not change", name)
		}
	}
}

func TestGlobalsEditChangesGlobalsDigest(t *testing.T) {
	a := hashSource(t, base)
	b := hashSource(t, strings.Replace(base, "int x, y;", "int x, y, z;", 1))
	if a.Globals == b.Globals {
		t.Fatalf("globals digest unchanged after adding a global")
	}
}

func TestIndirectCallClosure(t *testing.T) {
	// f is only reachable through a function pointer; a caller with an
	// indirect call must include address-taken functions in its closure.
	src := `
int x;
int *p;
void f(void) {}
void g(void) {}
void (*fp)(void) = f;
int main(void) { fp(); g(); return 0; }
`
	a := hashSource(t, src)
	edited := strings.Replace(src, "void f(void) {}", "void f(void) {p = &x;}", 1)
	b := hashSource(t, edited)
	pa, pb := a.ProcHash("main"), b.ProcHash("main")
	if pa.IR != pb.IR {
		t.Fatalf("main IR changed by editing f")
	}
	if pa.Closure == pb.Closure {
		t.Fatalf("main closure did not change although f (address-taken, indirectly callable) changed")
	}
	if a.ProcHash("g").Closure != b.ProcHash("g").Closure {
		t.Fatalf("g closure changed although g calls nothing")
	}
}

// TestFanOutEditSensitivity drives the closure-hash contract over the
// canonical fan-out shapes, where the static call structure is
// known exactly: editing the cone-0 leaf must change the leaf's own IR
// digest and the Closure digest of precisely the leaf, its chain, the
// cone root, and main — every other cone, setup, and the Globals digest
// stay fixed. This is the sensitivity the incremental graft relies on
// to keep all untouched cones' PTFs across an edit.
func TestFanOutEditSensitivity(t *testing.T) {
	for _, shape := range workload.FanOutShapes() {
		t.Run(shape.Name, func(t *testing.T) {
			src := shape.Source()
			leaf := "int *c0_0(int **u, int **v) { *u = *v; return *v; }"
			if !strings.Contains(src, leaf) {
				t.Fatalf("generated source lost the cone-0 leaf line")
			}
			edited := strings.Replace(src, leaf,
				"int *c0_0(int **u, int **v) { *u = *v; return *u; }", 1)
			a, b := hashSource(t, src), hashSource(t, edited)

			if a.Root == b.Root {
				t.Fatalf("root digest unchanged after leaf edit")
			}
			if a.Globals != b.Globals {
				t.Fatalf("globals digest changed by a procedure-body edit")
			}

			// The edit's dirty cone: the leaf itself, the chain above it,
			// the cone root, and main. Everything else survives.
			wantClosure := map[string]bool{"c0_0": true, "r0": true, "main": true}
			for k := 1; k < shape.Depth; k++ {
				wantClosure[fmt.Sprintf("c0_%d", k)] = true
			}
			changedIR := map[string]bool{}
			changedClosure := map[string]bool{}
			for _, pa := range a.Procs {
				pb := b.ProcHash(pa.Name)
				if pb == nil {
					t.Fatalf("procedure %s missing after edit", pa.Name)
				}
				if pa.IR != pb.IR {
					changedIR[pa.Name] = true
				}
				if pa.Closure != pb.Closure {
					changedClosure[pa.Name] = true
				}
			}
			if len(changedIR) != 1 || !changedIR["c0_0"] {
				t.Errorf("IR digests changed for %v, want only [c0_0]", changedIR)
			}
			for name := range changedClosure {
				if !wantClosure[name] {
					t.Errorf("closure digest of %s changed; changed set %v, want %v",
						name, changedClosure, wantClosure)
				}
			}
			for name := range wantClosure {
				if !changedClosure[name] {
					t.Errorf("closure digest of %s did not change", name)
				}
			}
		})
	}
}

func TestBenchmarksHashStably(t *testing.T) {
	for _, bm := range workload.Suite() {
		f, err := cparse.ParseSource(bm.Name+".c", bm.Source)
		if err != nil {
			t.Fatalf("%s: parse: %v", bm.Name, err)
		}
		prog, err := sem.Check(f)
		if err != nil {
			t.Fatalf("%s: sem: %v", bm.Name, err)
		}
		h1, err := Hash(prog)
		if err != nil {
			t.Fatalf("%s: hash: %v", bm.Name, err)
		}
		h2, err := Hash(prog)
		if err != nil {
			t.Fatalf("%s: rehash: %v", bm.Name, err)
		}
		if h1.Root != h2.Root {
			t.Fatalf("%s: unstable root digest", bm.Name)
		}
		if len(h1.Procs) == 0 {
			t.Fatalf("%s: no procedures hashed", bm.Name)
		}
	}
}
