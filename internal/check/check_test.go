package check_test

import (
	"testing"

	"wlpa/internal/analysis"
	"wlpa/internal/check"
	"wlpa/internal/cparse"
	"wlpa/internal/libsum"
	"wlpa/internal/sem"
	"wlpa/internal/workload"
)

// parseProg runs the front end over src.
func parseProg(t *testing.T, name, src string) *sem.Program {
	t.Helper()
	file, err := cparse.ParseSource(name, src)
	if err != nil {
		t.Fatalf("%s: parse: %v", name, err)
	}
	prog, err := sem.Check(file)
	if err != nil {
		t.Fatalf("%s: sem: %v", name, err)
	}
	return prog
}

// analyze runs the full front end and the analysis configured the way
// the checkers expect (with a collected solution).
func analyze(t *testing.T, name, src string) *analysis.Analysis {
	t.Helper()
	prog := parseProg(t, name, src)
	a, err := analysis.New(prog, analysis.Options{
		Lib:             libsum.Summaries(),
		LibEffects:      libsum.Effects(),
		CollectSolution: true,
	})
	if err != nil {
		t.Fatalf("%s: analysis.New: %v", name, err)
	}
	if err := a.Run(); err != nil {
		t.Fatalf("%s: analysis: %v", name, err)
	}
	return a
}

// run invokes the checker suite, failing the test on option errors.
func run(t *testing.T, a *analysis.Analysis, opts check.Options) []check.Diagnostic {
	t.Helper()
	diags, err := check.Run(a, opts)
	if err != nil {
		t.Fatalf("check.Run: %v", err)
	}
	return diags
}

// TestSeededBugsFlagged verifies that every seeded-bug fixture is
// flagged at Error severity by exactly the check its name announces.
func TestSeededBugsFlagged(t *testing.T) {
	want := map[string]string{
		"nullderef":    "nullderef",
		"uninit":       "uninitderef",
		"useafterfree": "useafterfree",
		"doublefree":   "doublefree",
		"localescape":  "localescape",
		"badcall":      "badcall",
		"leak":         "leak",
		"writero":      "writero",
		"typestate":    "useafterclose",
		"doubleclose":  "doubleclose",
		"fileleak":     "fileleak",
		"taint":        "taintflow",
	}
	fixtures := workload.BugFixtures()
	for fixture, checkID := range want {
		src, ok := fixtures[fixture]
		if !ok {
			t.Errorf("no fixture bug_%s.c", fixture)
			continue
		}
		a := analyze(t, "bug_"+fixture+".c", src)
		diags := run(t, a, check.Options{})
		found := false
		for _, d := range diags {
			if d.Check == checkID && d.Sev == check.Error {
				found = true
				if !d.Pos.IsValid() {
					t.Errorf("%s: diagnostic without position: %v", fixture, d)
				}
				if len(d.Trace) == 0 {
					t.Errorf("%s: diagnostic without context trace: %v", fixture, d)
				}
			}
		}
		if !found {
			t.Errorf("%s: no %s error; got %v", fixture, checkID, diags)
		}
	}
}

// TestCheckSelection verifies that Options.Checks restricts the suite.
func TestCheckSelection(t *testing.T) {
	src := workload.BugFixtures()["nullderef"]
	a := analyze(t, "bug_nullderef.c", src)
	diags := run(t, a, check.Options{Checks: []string{"badcall"}})
	for _, d := range diags {
		if d.Check != "badcall" {
			t.Errorf("check %s ran though only badcall was selected", d.Check)
		}
	}
	// A typo in the check list is an error, not a silent no-op.
	if _, err := check.Run(a, check.Options{Checks: []string{"nullderf"}}); err == nil {
		t.Error("unknown check name accepted")
	}
}

// TestPassSelection verifies that Options.Passes restricts the suite to
// whole passes and rejects unknown pass names.
func TestPassSelection(t *testing.T) {
	src := workload.BugFixtures()["typestate"]
	a := analyze(t, "bug_typestate.c", src)
	diags := run(t, a, check.Options{Passes: []string{"typestate"}})
	found := false
	for _, d := range diags {
		switch d.Check {
		case "useafterclose", "doubleclose", "fileleak":
			found = true
		default:
			t.Errorf("check %s ran though only the typestate pass was selected", d.Check)
		}
	}
	if !found {
		t.Error("typestate pass produced nothing on its own fixture")
	}
	// Pass and check filters intersect: selecting the typestate pass but
	// only the doubleclose check must suppress useafterclose.
	for _, d := range run(t, a, check.Options{Passes: []string{"typestate"}, Checks: []string{"doubleclose"}}) {
		if d.Check != "doubleclose" {
			t.Errorf("check %s survived the pass+check intersection", d.Check)
		}
	}
	// A typo in the pass list is an error, not a silent no-op.
	if _, err := check.Run(a, check.Options{Passes: []string{"typestat"}}); err == nil {
		t.Error("unknown pass name accepted")
	}
}

// TestFreeThenReallocNotFlagged verifies the reallocation refinement:
// storage freed and then reallocated through the same return slot is
// not a use-after-free.
func TestFreeThenReallocNotFlagged(t *testing.T) {
	src := `
#include <stdlib.h>
int result;
int main(void) {
    int *p = (int *)malloc(sizeof(int));
    *p = 1;
    free(p);
    p = (int *)malloc(sizeof(int));
    *p = 2;
    result = *p;
    return 0;
}`
	a := analyze(t, "realloc.c", src)
	for _, d := range run(t, a, check.Options{}) {
		if d.Check == "useafterfree" {
			t.Errorf("spurious use-after-free: %v", d)
		}
	}
}

// TestMaybeNullIsWarning verifies that a pointer that is NULL on only
// one path is reported as a warning, not an error.
func TestMaybeNullIsWarning(t *testing.T) {
	src := `
int x, flag, result;
int main(void) {
    int *p = 0;
    if (flag)
        p = &x;
    result = *p;
    return 0;
}`
	a := analyze(t, "maybenull.c", src)
	found := false
	for _, d := range run(t, a, check.Options{}) {
		if d.Check == "nullderef" {
			found = true
			if d.Sev != check.Warning {
				t.Errorf("maybe-NULL dereference reported as %s, want warning", d.Sev)
			}
		}
	}
	if !found {
		t.Error("maybe-NULL dereference not reported")
	}
}

// TestContextSensitiveSeverity verifies the cross-context merge: a
// callee dereferencing a maybe-NULL argument in one context and a valid
// pointer in another is not an error.
func TestContextSensitiveSeverity(t *testing.T) {
	src := `
int x, y, result;
int *deref_arg_ptr(int **pp) { return *pp; }
int main(void) {
    int *good = &x;
    int *null = 0;
    int *a = deref_arg_ptr(&good);
    int *b = deref_arg_ptr(&null);
    result = *a;
    return 0;
}`
	a := analyze(t, "ctx.c", src)
	for _, d := range run(t, a, check.Options{}) {
		if d.Proc == "deref_arg_ptr" && d.Sev == check.Error {
			t.Errorf("context-dependent defect reported as error: %v", d)
		}
	}
}
