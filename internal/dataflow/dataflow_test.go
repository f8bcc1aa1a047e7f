package dataflow_test

import (
	"testing"

	"wlpa/internal/analysis"
	"wlpa/internal/cfg"
	"wlpa/internal/cparse"
	"wlpa/internal/dataflow"
	"wlpa/internal/libsum"
	"wlpa/internal/memmod"
	"wlpa/internal/sem"
)

func analyze(t *testing.T, src string) *analysis.Analysis {
	t.Helper()
	file, err := cparse.ParseSource("df.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := sem.Check(file)
	if err != nil {
		t.Fatalf("sem: %v", err)
	}
	a, err := analysis.New(prog, analysis.Options{
		Lib:             libsum.Summaries(),
		LibEffects:      libsum.Effects(),
		CollectSolution: true,
	})
	if err != nil {
		t.Fatalf("analysis.New: %v", err)
	}
	if err := a.Run(); err != nil {
		t.Fatalf("analysis.Run: %v", err)
	}
	return a
}

func TestFactOperations(t *testing.T) {
	b1 := &memmod.Block{Name: "b1"}
	b2 := &memmod.Block{Name: "b2"}
	f := dataflow.Fact{}
	f.Set(b1, 3)
	if f.Get(b1) != 3 || f.Get(b2) != 0 {
		t.Fatalf("Get after Set: %v", f)
	}
	// Setting zero removes the cell (the invariant Equal relies on).
	f.Set(b1, 0)
	if len(f) != 0 {
		t.Fatalf("zero Set did not delete: %v", f)
	}
	f.Set(b1, 1)
	g := f.Clone()
	g.Set(b2, 2)
	if f.Get(b2) != 0 {
		t.Fatal("Clone is not independent")
	}
	// Join is bitwise OR per cell and reports change precisely.
	if !f.JoinWith(dataflow.Fact{b1: 2}) || f.Get(b1) != 3 {
		t.Fatalf("JoinWith OR failed: %v", f)
	}
	if f.JoinWith(dataflow.Fact{b1: 1}) {
		t.Fatal("JoinWith reported change on a no-op join")
	}
	if f.Equal(g) {
		t.Fatal("Equal on differing facts")
	}
	g.Set(b2, 0)
	g.Set(b1, 3)
	if !f.Equal(g) {
		t.Fatalf("Equal on identical facts: %v vs %v", f, g)
	}
}

func TestStrong(t *testing.T) {
	b := &memmod.Block{Name: "b"}
	if dataflow.Strong(nil) || dataflow.Strong([]*memmod.Block{b, b}) {
		t.Fatal("non-singleton resolution classified strong")
	}
	if !dataflow.Strong([]*memmod.Block{b}) {
		t.Fatal("singleton resolution not strong")
	}
}

// markClient tracks one bit: malloc marks its heap cell, free observes
// the state of its argument's cells at the reporting root. The fixpoint
// re-runs transfer functions until stabilization, so observations are
// keyed by call position with the last (converged) state kept — the same
// dedup discipline the checker passes use.
func markClient(obs map[string]dataflow.State) dataflow.Client {
	return dataflow.Client{
		Gen: func(name string) bool { return name == "malloc" },
		Library: func(e *dataflow.Engine, w *dataflow.Walk, nd *cfg.Node, f dataflow.Fact) {
			switch nd.Direct.Name {
			case "malloc":
				if hb := e.HeapCell(nd); hb != nil {
					f.Set(hb, 1)
				}
			case "free":
				var s dataflow.State
				for _, c := range e.ArgCells(w, nd, 0) {
					s |= f.Get(c)
				}
				if e.AtRoot() {
					obs[nd.Pos.String()] = s
				}
			}
		},
	}
}

// TestSummaryThreadsFactThroughCall verifies the summary-edge mechanics:
// state created inside a callee (malloc marks its cell during the
// summary walk of get) is visible in the caller after the call.
func TestSummaryThreadsFactThroughCall(t *testing.T) {
	src := `
#include <stdlib.h>
int *p;
void get(void) {
    p = (int *)malloc(sizeof(int));
}
int main(void) {
    get();
    free(p);
    return 0;
}`
	a := analyze(t, src)
	obs := map[string]dataflow.State{}
	eng := &dataflow.Engine{A: a, ModRef: a.ModRef(), Client: markClient(obs)}
	if _, err := eng.ContextRun(a.MainPTF()); err != nil {
		t.Fatal(err)
	}
	if len(obs) != 1 {
		t.Fatalf("free observed at %d sites at root, want 1: %v", len(obs), obs)
	}
	for pos, s := range obs {
		if s != 1 {
			t.Fatalf("heap cell state at free (%s) = %d, want 1 (mark from callee summary lost)", pos, s)
		}
	}
}

// TestContextRunCarriesCallerState verifies the home-chain walk: when
// the root context is a callee, the fact computed in its caller (main
// marked the heap cell before calling use) flows into the root walk's
// entry, and the callee's own nodes report AtRoot.
func TestContextRunCarriesCallerState(t *testing.T) {
	src := `
#include <stdlib.h>
int *p;
void use(void) {
    free(p);
}
int main(void) {
    p = (int *)malloc(sizeof(int));
    use();
    return 0;
}`
	a := analyze(t, src)
	ptfs := a.PTFs("use")
	if len(ptfs) != 1 {
		t.Fatalf("use has %d contexts, want 1", len(ptfs))
	}
	obs := map[string]dataflow.State{}
	eng := &dataflow.Engine{A: a, ModRef: a.ModRef(), Client: markClient(obs)}
	if _, err := eng.ContextRun(ptfs[0]); err != nil {
		t.Fatal(err)
	}
	if len(obs) != 1 {
		t.Fatalf("free observed at %d sites at root, want 1: %v", len(obs), obs)
	}
	for pos, s := range obs {
		if s != 1 {
			t.Fatalf("heap cell state in callee context (%s) = %d, want 1 (caller state lost)", pos, s)
		}
	}
}

// TestRunExitHook verifies Run's contract: a nil entry starts empty, the
// exit fact is returned, and the Exit hook sees it.
func TestRunExitHook(t *testing.T) {
	src := `
#include <stdlib.h>
int *p;
int main(void) {
    p = (int *)malloc(sizeof(int));
    return 0;
}`
	a := analyze(t, src)
	var exitFact dataflow.Fact
	eng := &dataflow.Engine{A: a, ModRef: a.ModRef(), Client: dataflow.Client{
		Gen: func(name string) bool { return name == "malloc" },
		Library: func(e *dataflow.Engine, w *dataflow.Walk, nd *cfg.Node, f dataflow.Fact) {
			if hb := e.HeapCell(nd); hb != nil {
				f.Set(hb, 1)
			}
		},
		Exit: func(e *dataflow.Engine, w *dataflow.Walk, f dataflow.Fact) {
			exitFact = f.Clone()
		},
	}}
	res, err := eng.Run(a.MainPTF(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if exitFact == nil {
		t.Fatal("Exit hook did not fire")
	}
	if !res.Equal(exitFact) {
		t.Fatalf("returned fact %v differs from Exit hook's %v", res, exitFact)
	}
	if len(res) != 1 {
		t.Fatalf("exit fact has %d cells, want the marked heap cell: %v", len(res), res)
	}
}

// TestDeterministicAcrossRuns pins the determinism contract: two fresh
// engines over the same analysis produce identical observation streams.
func TestDeterministicAcrossRuns(t *testing.T) {
	src := `
#include <stdlib.h>
int *p;
int *q;
int flag;
void get(int **out) {
    *out = (int *)malloc(sizeof(int));
}
int main(void) {
    get(&p);
    get(&q);
    if (flag)
        p = q;
    free(p);
    free(q);
    return 0;
}`
	a := analyze(t, src)
	runOnce := func() map[string]dataflow.State {
		obs := map[string]dataflow.State{}
		eng := &dataflow.Engine{A: a, ModRef: a.ModRef(), Client: markClient(obs)}
		if _, err := eng.ContextRun(a.MainPTF()); err != nil {
			t.Fatal(err)
		}
		return obs
	}
	first := runOnce()
	if len(first) != 2 {
		t.Fatalf("expected free observations at 2 sites, got %v", first)
	}
	for pos, s := range first {
		if s != 1 {
			t.Fatalf("state at %s = %d, want 1", pos, s)
		}
	}
	for i := 0; i < 5; i++ {
		again := runOnce()
		if len(again) != len(first) {
			t.Fatalf("run %d: %v vs %v", i, again, first)
		}
		for pos, s := range again {
			if first[pos] != s {
				t.Fatalf("run %d: state at %s = %d, want %d", i, pos, s, first[pos])
			}
		}
	}
}

// hookCounts tallies the hooks a countingClient saw fire.
type hookCounts struct{ transfer, library, havoc int }

// countingClient counts every Transfer, Library and Havoc call. Its only
// Gen call is fopen, which marks the opened handle's heap cell; no other
// hook touches the fact.
func countingClient(n *hookCounts) dataflow.Client {
	return dataflow.Client{
		Gen: func(name string) bool { return name == "fopen" },
		Transfer: func(e *dataflow.Engine, w *dataflow.Walk, nd *cfg.Node, f dataflow.Fact) {
			n.transfer++
		},
		Library: func(e *dataflow.Engine, w *dataflow.Walk, nd *cfg.Node, f dataflow.Fact) {
			n.library++
			if nd.Direct.Name == "fopen" {
				if hb := e.HeapCell(nd); hb != nil {
					f.Set(hb, 1)
				}
			}
		},
		Havoc: func(s dataflow.State) dataflow.State {
			n.havoc++
			return s
		},
	}
}

// TestNoGenContextsNotWalked pins the reachability prune: in a program
// with a recursive cycle, an indirect call, printf and strcpy but no Gen
// call, no context can hold a fact, so ContextRun of every PTF fires no
// Transfer, Library or Havoc hook. (A syntactic relevance filter that
// counts cycles and indirect calls as relevant walks all of them.)
func TestNoGenContextsNotWalked(t *testing.T) {
	src := `
#include <stdio.h>
#include <string.h>
char buf[32];
int n;
void pong(void);
void show(char *s) { printf("%s\n", s); }
void ping(void) {
    strcpy(buf, "tick");
    if (n > 0) {
        n--;
        pong();
    }
}
void pong(void) { ping(); }
int main(void) {
    void (*fp)(char *);
    fp = show;
    n = 3;
    ping();
    fp(buf);
    return 0;
}`
	a := analyze(t, src)
	var n hookCounts
	reach := dataflow.NewReach(a, countingClient(&n).Gen)
	for _, p := range a.AllPTFs() {
		eng := &dataflow.Engine{A: a, ModRef: a.ModRef(), Client: countingClient(&n), Reach: reach}
		res, err := eng.ContextRun(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 0 {
			t.Fatalf("%s: exit fact %v, want empty", p.Proc.Name, res)
		}
	}
	if n != (hookCounts{}) {
		t.Fatalf("hooks fired on contexts that cannot generate: %+v", n)
	}
}

// TestGenThroughFuncPtrAndCycle guards the prune against over-pruning:
// an fopen reached only through a function pointer, and one inside a
// recursive cycle, still reach main's exit fact.
func TestGenThroughFuncPtrAndCycle(t *testing.T) {
	cases := map[string]string{
		"funcptr": `
#include <stdio.h>
FILE *h;
void opener(void) { h = fopen("x", "r"); }
int main(void) {
    void (*fp)(void);
    fp = opener;
    fp();
    return 0;
}`,
		"cycle": `
#include <stdio.h>
FILE *h;
int n;
void pong(void);
void ping(void) {
    if (n > 0) {
        n--;
        pong();
    } else {
        h = fopen("x", "r");
    }
}
void pong(void) { ping(); }
int main(void) {
    n = 2;
    ping();
    return 0;
}`,
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			a := analyze(t, src)
			var n hookCounts
			eng := &dataflow.Engine{A: a, ModRef: a.ModRef(), Client: countingClient(&n)}
			res, err := eng.ContextRun(a.MainPTF())
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != 1 {
				t.Fatalf("main's exit fact %v, want the opened handle's cell (hooks %+v)", res, n)
			}
		})
	}
}
