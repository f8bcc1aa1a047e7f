package difftest

import (
	"strings"
	"testing"

	"wlpa/internal/workload"
)

// FuzzOracleLattice is the main differential fuzz target: a raw
// (seed, feature-word) pair is decoded into either a
// generated program (feature bits select generator v2 constructs) or a
// benchmark suite program (BenchmarkBit), and the whole oracle lattice
// is asserted over it. On a property failure the delta-debugging
// reducer shrinks the program and stores it under
// internal/workload/testdata/regressions/ before failing.
func FuzzOracleLattice(f *testing.F) {
	// One seed per generator feature bit, plus the all-features mask.
	for bit := 0; bit < workload.NumFeatures(); bit++ {
		f.Add(int64(bit+1), uint32(1)<<bit)
	}
	f.Add(int64(99), uint32(workload.AllFeatures()))
	// The benchmark suite configurations.
	for i := 0; i < len(workload.Suite()); i++ {
		f.Add(int64(i), BenchmarkBit)
	}
	f.Fuzz(func(t *testing.T, seed int64, raw uint32) {
		name, src, opt := DecodeInput(seed, raw)
		if src == "" {
			t.Skip("empty input")
		}
		err := CheckProgram(name, src, opt)
		if err == nil {
			return
		}
		fl, ok := err.(*Failure)
		if !ok {
			t.Fatalf("oracle returned non-Failure error: %v", err)
		}
		if gap := KnownOpenGap(fl); gap != "" {
			// Rediscovery of a pinned still-open gap — not a fresh
			// property violation. The open-gaps test keeps the gap
			// itself visible; re-failing CI on every rediscovery would
			// make the fuzz job permanently red.
			t.Skipf("rediscovered known-open gap %s:\n%v", gap, fl)
		}
		reduced, path := ReduceFailure(fl, opt)
		t.Fatalf("%v\nreduced reproducer (%d lines, stored at %s):\n%s",
			fl, len(strings.Split(reduced, "\n")), path, reduced)
	})
}

// FuzzFrontend feeds raw (mutated) C text through the whole frontend —
// lexer, preprocessor, parser, semantic analysis — and asserts
// error-not-panic: arbitrary input must be rejected with a diagnostic,
// never a crash. Programs that do pass the frontend must also survive
// flow-graph construction via the analysis entry (exercised here only
// when the frontend accepts, which fuzzing quickly learns to do).
func FuzzFrontend(f *testing.F) {
	f.Add("int main(void) { return 0; }")
	f.Add("int *p; int g; int main(void) { p = &g; *p = 1; return *p; }")
	f.Add("struct s { int *q; } v; int main(void) { v.q = (int *)0; }")
	f.Add("#define X 4\nint a[X]; int main(void) { return a[X-1]; }")
	f.Add("int f(int x) { return f(x-1); } int main(void) { return f(2); }")
	f.Add("void (*h)(void); int main(void) { h(); }")
	f.Add("int main(void) { int x = ; }")
	f.Add("\x00\xff garbage \x7f")
	f.Add("int main(void) { /* unterminated")
	f.Add("\"unterminated string")
	f.Fuzz(func(t *testing.T, src string) {
		// Any outcome but a panic is acceptable; the deferred recover
		// in the frontend layers must convert malformed input into
		// ordinary errors.
		_, _ = Frontend("fuzz.c", src)
	})
}
