package analysis_test

import (
	"testing"

	"wlpa/internal/analysis"
	"wlpa/internal/cfg"
	"wlpa/internal/cparse"
	"wlpa/internal/irhash"
	"wlpa/internal/sem"
	"wlpa/internal/workload"
)

// checkProgram parses and checks src under the file name runOpts uses.
func checkProgram(t *testing.T, src string) *sem.Program {
	t.Helper()
	f, err := cparse.ParseSource("t.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := sem.Check(f)
	if err != nil {
		t.Fatalf("sem: %v", err)
	}
	return prog
}

// samePTFs fails unless PTFs(name) is, for every function of prog, the
// slice a scan of the whole PTF map finds.
func samePTFs(t *testing.T, a *analysis.Analysis, prog *sem.Program) {
	t.Helper()
	analyzed := 0
	for _, fd := range prog.Funcs {
		got, want := a.PTFs(fd.Name), a.PTFsByScan(fd.Name)
		if len(got) != len(want) {
			t.Fatalf("PTFs(%s): %d PTFs, a scan finds %d", fd.Name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("PTFs(%s)[%d] is not the PTF a scan finds", fd.Name, i)
			}
		}
		if len(got) > 0 {
			analyzed++
		}
	}
	if analyzed == 0 {
		t.Fatal("no function has a PTF")
	}
}

// TestPTFsAfterGraft checks the PTFs lookup, which goes through the
// procedure's flow graph, after a graft: the graft replaces the PTF map
// with one keyed by the edited program's flow graphs (kept ones for
// clean procedures, new ones for dirty procedures).
func TestPTFsAfterGraft(t *testing.T) {
	b, ok := workload.ByName("compiler")
	if !ok {
		t.Fatal("compiler missing from the suite")
	}
	src, ok := workload.TweakNthStatement(b.Source, 1)
	if !ok {
		t.Fatal("compiler has no tweak 1")
	}
	a, base := runOpts(t, b.Source, analysis.Options{CollectSolution: true})
	samePTFs(t, a, base)
	edited, st := graft(t, a, base, src)
	if st.CleanProcs == 0 || st.DirtyProcs == 0 {
		t.Fatalf("edit should leave procedures on both sides: %+v", st)
	}
	if a.RestoredPTFs() == 0 {
		t.Fatal("the graft restored no PTF")
	}
	samePTFs(t, a, edited)
}

// graft re-runs a, converged on base, on the edit src: procedures whose
// closure hash survived the edit keep their PTFs. It returns the edited
// program and the graft's accounting.
func graft(t *testing.T, a *analysis.Analysis, base *sem.Program, src string) (*sem.Program, *analysis.IncrementalStats) {
	t.Helper()
	baseHash, err := irhash.Hash(base)
	if err != nil {
		t.Fatal(err)
	}
	edited := checkProgram(t, src)
	procs, err := cfg.BuildAll(edited.Funcs)
	if err != nil {
		t.Fatal(err)
	}
	editedHash := irhash.HashProcs(edited, procs)
	clean := map[string]bool{}
	for i := range editedHash.Procs {
		p := &editedHash.Procs[i]
		if bp := baseHash.ProcHash(p.Name); bp != nil && bp.Closure == p.Closure {
			clean[p.Name] = true
		}
	}
	st, err := a.PrepareIncremental(edited, procs, clean)
	if err != nil {
		t.Fatalf("graft refused: %v", err)
	}
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	return edited, st
}
