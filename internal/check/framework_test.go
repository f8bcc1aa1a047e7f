package check_test

import (
	"strings"
	"testing"

	"wlpa/internal/check"
	"wlpa/internal/workload"
)

// renderAll flattens diagnostics to their full textual form (position,
// severity, message, check, context chain) for exact comparison.
func renderAll(diags []check.Diagnostic) string {
	var sb strings.Builder
	for _, d := range diags {
		sb.WriteString(d.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestWorkerDeterminism verifies that the checker's output is
// byte-identical, ordered and deduplicated from run to run, over both
// the benchmark suite and the seeded-bug fixtures: a second run, on a
// freshly built analysis of the same source, renders the same text.
func TestWorkerDeterminism(t *testing.T) {
	sources := map[string]string{}
	for _, b := range workload.Suite() {
		sources[b.Name] = b.Source
	}
	for name, src := range workload.BugFixtures() {
		sources["bug_"+name] = src
	}
	for name, src := range sources {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			base := renderAll(run(t, analyze(t, name+".c", src), check.Options{}))
			got := renderAll(run(t, analyze(t, name+".c", src), check.Options{}))
			if got != base {
				t.Fatalf("diagnostics differ between two runs:\n-- first --\n%s\n-- second --\n%s", base, got)
			}
		})
	}
}

// TestDiagnosticChain verifies Diagnostic.String() carries the calling
// context as a compact call chain.
func TestDiagnosticChain(t *testing.T) {
	src := `
int *gp;
int *leaky(void) { int x; int *p; p = &x; return p; }
int *wrap(void) { return leaky(); }
int main(void) {
    gp = wrap();
    return 0;
}`
	a := analyze(t, "chain.c", src)
	found := false
	for _, d := range run(t, a, check.Options{}) {
		if d.Check != "localescape" || d.Proc != "leaky" {
			continue
		}
		found = true
		if got := d.Chain(); got != "main -> wrap -> leaky" {
			t.Errorf("Chain() = %q, want %q", got, "main -> wrap -> leaky")
		}
		if s := d.String(); !strings.Contains(s, "(in main -> wrap -> leaky)") {
			t.Errorf("String() = %q: missing context chain", s)
		}
	}
	if !found {
		t.Fatal("localescape in leaky not reported")
	}
}

// TestWriteroThroughParameter verifies the string-literal write check
// resolves extended parameters back to their bindings: the defective
// store is in a callee two calls deep.
func TestWriteroThroughParameter(t *testing.T) {
	src := `
void put(char *s) { *s = 'H'; }
void mid(char *s) { put(s); }
int main(void) {
    mid("hello");
    return 0;
}`
	a := analyze(t, "wro.c", src)
	found := false
	for _, d := range run(t, a, check.Options{}) {
		if d.Check == "writero" && d.Proc == "put" {
			found = true
			if d.Sev != check.Error {
				t.Errorf("writero through parameter reported as %s, want error", d.Sev)
			}
		}
	}
	if !found {
		t.Fatal("writero store through parameter not reported")
	}
}

// TestRegistry pins the pass registry's invariants: the builtin check
// list (order is API — it fixes All and the walk order), and rejection
// of conflicting registrations.
func TestRegistry(t *testing.T) {
	want := []string{
		"nullderef", "uninitderef", "useafterfree", "doublefree",
		"localescape", "badcall", "writero", "leak",
		"useafterclose", "doubleclose", "fileleak",
		"taintflow", "taintfmt",
	}
	if len(check.All) != len(want) {
		t.Fatalf("All = %v, want %v", check.All, want)
	}
	for i, id := range want {
		if check.All[i] != id {
			t.Fatalf("All[%d] = %q, want %q (full: %v)", i, check.All[i], id, check.All)
		}
	}
	if err := check.Register(&check.Pass{Name: "deref", Checks: []string{"x"},
		Program: func(*check.Ctx) {}}); err == nil {
		t.Error("duplicate pass name accepted")
	}
	if err := check.Register(&check.Pass{Name: "fresh", Checks: []string{"leak"},
		Program: func(*check.Ctx) {}}); err == nil {
		t.Error("duplicate check identifier accepted")
	}
	if err := check.Register(&check.Pass{Name: "hookless", Checks: []string{"y"}}); err == nil {
		t.Error("pass without hooks accepted")
	}
}
