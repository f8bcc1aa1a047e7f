package difftest

import (
	"os"
	"strings"
	"testing"

	"wlpa/internal/check"
	"wlpa/internal/ctok"
	"wlpa/internal/interp"
	"wlpa/internal/workload"
)

// TestOracleOnGeneratedPrograms runs the full lattice over every
// generator feature bit (plus the all-features mask) for a couple of
// seeds each. The fuzz target explores far more; this keeps a
// deterministic floor under plain `go test`.
func TestOracleOnGeneratedPrograms(t *testing.T) {
	for bit := 0; bit <= workload.NumFeatures(); bit++ {
		raw, label := uint32(1)<<bit, "all"
		if bit < workload.NumFeatures() {
			label = workload.FeatureName(bit)
		} else {
			raw = uint32(workload.AllFeatures())
		}
		t.Run(label, func(t *testing.T) {
			for seed := int64(0); seed < 3; seed++ {
				name, src, opt := DecodeInput(seed, raw)
				if err := CheckProgram(name, src, opt); err != nil {
					t.Fatalf("%v\n--- source ---\n%s", err, src)
				}
			}
		})
	}
}

// TestOracleOnBenchmarks keeps a fast deterministic floor over a few
// benchmark suite entries (the fuzz corpus covers them all).
func TestOracleOnBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, want := range []string{"allroots", "diff", "simulator"} {
		for i := 0; ; i++ {
			name, src, opt := DecodeInput(int64(i), BenchmarkBit)
			if i > 64 {
				t.Fatalf("benchmark %s not reachable from DecodeInput", want)
			}
			if name != want {
				continue
			}
			if err := CheckProgram(name, src, opt); err != nil {
				t.Fatalf("%v", err)
			}
			break
		}
	}
}

// TestSeededUnsoundnessCaughtAndReduced mutation-tests the oracle: it
// deliberately drops every fact about one block from the PTF solution
// (an artificial unsoundness, injected at the comparison layer so no
// broken analysis ever ships) and requires that the soundness stage
// catches it and that the reducer shrinks the witness to a small
// reproducer, written where regressions live.
func TestSeededUnsoundnessCaughtAndReduced(t *testing.T) {
	regressionsDirOverride = t.TempDir()
	defer func() { regressionsDirOverride = "" }()

	name, src, opt := DecodeInput(1, uint32(workload.FeatHeap))
	opt.dropSolutionBlock = "p0"
	err := CheckProgram(name, src, opt)
	if err == nil {
		t.Fatal("seeded unsoundness not caught")
	}
	fl, ok := err.(*Failure)
	if !ok || fl.Stage != StageSoundness {
		t.Fatalf("want a %s failure, got %v", StageSoundness, err)
	}
	reduced, path := ReduceFailure(fl, opt)
	if n := len(strings.Split(reduced, "\n")); n > 25 {
		t.Fatalf("reduced reproducer has %d lines, want <= 25:\n%s", n, reduced)
	}
	if path == "" {
		t.Fatal("reproducer was not written")
	}
	data, err2 := os.ReadFile(path)
	if err2 != nil {
		t.Fatal(err2)
	}
	if !strings.Contains(string(data), StageSoundness) {
		t.Fatalf("reproducer header does not name the stage:\n%s", data)
	}
	// The reduced program must still trip the mutated oracle...
	if err := CheckProgram(name, reduced, opt); err == nil {
		t.Fatal("reduced reproducer no longer fails the mutated oracle")
	}
	// ...and pass the real one (the unsoundness was seeded, not real).
	opt.dropSolutionBlock = ""
	if err := CheckProgram(name, reduced, opt); err != nil {
		t.Fatalf("reduced reproducer fails the unmutated oracle: %v", err)
	}
}

// TestInterpFuelFailure pins the explicit fuel-limit path: a
// terminating but expensive program under a tiny budget must surface
// as a distinct interp-fuel failure carrying the program source, never
// as a hang or an ordinary fault.
func TestInterpFuelFailure(t *testing.T) {
	name, src, opt := DecodeInput(3, uint32(workload.AllFeatures()))
	opt.MaxSteps = 50
	err := CheckProgram(name, src, opt)
	fl, ok := err.(*Failure)
	if !ok || fl.Stage != StageInterpFuel {
		t.Fatalf("want a %s failure, got %v", StageInterpFuel, err)
	}
	if fl.Src != src {
		t.Fatal("fuel failure does not carry the offending program")
	}
}

// TestCollapsedSolutionExceedsAndersen pins the known, documented gap
// in the precision lattice (see the comment in CheckProgram and the
// header of testdata/andersen_gap.c): the collapsed PTF solution can
// exceed Andersen because query-time resolution context-collapses
// extended-parameter bindings. If this test ever fails because the
// violation disappeared, the solution's resolution got more precise —
// strengthen the oracle lattice with a PTF ⊆ Andersen layer and drop
// this pin.
func TestCollapsedSolutionExceedsAndersen(t *testing.T) {
	data, err := os.ReadFile("testdata/andersen_gap.c")
	if err != nil {
		t.Fatal(err)
	}
	src := string(data)
	miss, err := AndersenViolation("andersen_gap.c", src)
	if err != nil {
		t.Fatal(err)
	}
	if miss == "" {
		t.Fatal("collapsed solution is now within Andersen on the pinned witness; " +
			"strengthen the oracle lattice (add PTF ⊆ Andersen) and retire this pin")
	}
	// The full oracle — which omits that edge by design — must pass.
	if err := CheckProgram("andersen_gap.c", src, Options{}); err != nil {
		t.Fatalf("oracle fails on the pinned witness: %v", err)
	}
}

// TestOracleOnFilePrograms runs the full lattice over hand-written
// FILE-protocol programs: a balanced open/use/close chain (every rung
// must hold with zero violations observed) and a deliberate handle
// leak (the static fileleak report and the dynamic open-at-exit census
// must agree, so the typestate rung passes rather than flagging a
// false positive or a soundness hole).
func TestOracleOnFilePrograms(t *testing.T) {
	progs := map[string]string{
		"balanced": `
#include <stdio.h>
int main(void) {
    FILE *f = fopen("t.tmp", "w");
    if (f) {
        fputc('a', f);
        fclose(f);
    }
    return 0;
}`,
		"handle_leak": `
#include <stdio.h>
int main(void) {
    FILE *f = fopen("t.tmp", "w");
    if (f)
        fputc('a', f);
    return 0;
}`,
	}
	for name, src := range progs {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			if err := CheckProgram(name+".c", src, Options{}); err != nil {
				t.Fatalf("%v", err)
			}
		})
	}
}

// TestTypestateRung exercises the rung's four verdicts directly on
// synthetic diagnostics and interpreter censuses.
func TestTypestateRung(t *testing.T) {
	pos := ctok.Pos{File: "x.c", Line: 4, Col: 5}
	diag := func(id string, sev check.Severity) check.Diagnostic {
		return check.Diagnostic{Check: id, Sev: sev, Pos: pos}
	}
	fail := func(stage, format string, _ ...any) error {
		return &Failure{Stage: stage, Detail: format}
	}
	cases := []struct {
		name  string
		diags []check.Diagnostic
		res   interp.Result
		want  string // expected failing stage, "" = rung holds
	}{
		{name: "clean", res: interp.Result{}},
		{name: "violation-reported",
			diags: []check.Diagnostic{diag("useafterclose", check.Warning)},
			res:   interp.Result{FileViolations: []string{pos.String()}}},
		{name: "violation-missed",
			res:  interp.Result{FileViolations: []string{pos.String()}},
			want: StageTypestate},
		{name: "open-at-exit-reported",
			diags: []check.Diagnostic{diag("fileleak", check.Error)},
			res:   interp.Result{OpenSites: []string{pos.String()}, OpenAtExit: []string{pos.String()}}},
		{name: "open-at-exit-missed",
			res:  interp.Result{OpenSites: []string{pos.String()}, OpenAtExit: []string{pos.String()}},
			want: StageTypestate},
		{name: "fileleak-false-positive",
			diags: []check.Diagnostic{diag("fileleak", check.Error)},
			res:   interp.Result{OpenSites: []string{pos.String()}},
			want:  StageTypestate},
		{name: "fileleak-conditional-ok",
			// Error at a site the run never opened: a definite leak
			// conditional on the open executing — allowed.
			diags: []check.Diagnostic{diag("fileleak", check.Error)},
			res:   interp.Result{}},
		{name: "fileleak-warning-ok",
			// A may-leak warning at a closed site is not held against
			// the checker.
			diags: []check.Diagnostic{diag("fileleak", check.Warning)},
			res:   interp.Result{OpenSites: []string{pos.String()}}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			err := checkTypestateRung(tc.diags, &tc.res, fail)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("rung failed: %v", err)
			case tc.want != "":
				fl, ok := err.(*Failure)
				if !ok || fl.Stage != tc.want {
					t.Fatalf("want %s failure, got %v", tc.want, err)
				}
			}
		})
	}
}

func TestDecodeInput(t *testing.T) {
	// Generated mode: feature bits map through FuzzGenConfig.
	name, src, opt := DecodeInput(7, uint32(workload.FeatHeap|workload.FeatFree))
	if !strings.Contains(name, "heap") || !strings.Contains(name, "free") {
		t.Fatalf("generated name does not identify features: %q", name)
	}
	if !strings.Contains(src, "int main(void)") {
		t.Fatal("generated source has no main")
	}
	if opt.SkipFullPass || opt.SkipUnifyLattice {
		t.Fatal("generated mode must run the full lattice")
	}
	// Benchmark mode: the suite is selected by seed, full-pass and the
	// unification layers are skipped, and lex315 is never selected.
	seen := map[string]bool{}
	for i := 0; i < 64; i++ {
		name, src, opt := DecodeInput(int64(i), BenchmarkBit)
		if src == "" {
			t.Fatal("benchmark decode returned empty source")
		}
		if !opt.SkipFullPass || !opt.SkipUnifyLattice {
			t.Fatal("benchmark mode must skip full-pass and the unification lattice")
		}
		if name == "lex315" {
			t.Fatal("lex315 must be excluded from fuzz benchmark mode")
		}
		seen[name] = true
	}
	if len(seen) < 12 {
		t.Fatalf("benchmark selection covers only %d programs", len(seen))
	}
}
