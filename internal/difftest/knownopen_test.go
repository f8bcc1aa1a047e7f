package difftest

import (
	"os"
	"path/filepath"
	"testing"

	"wlpa/internal/workload"
)

// TestKnownOpenGapMatchesWitness ties the classifier to the pinned
// witness: the open subsumption divergence must classify as known (so
// fuzz rediscoveries skip instead of failing), and unrelated failures
// must not.
func TestKnownOpenGapMatchesWitness(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "workload", "testdata", "open",
		filepath.Base(KnownOpenGapWitness)))
	if err != nil {
		t.Fatal(err)
	}
	err = CheckProgram("witness", string(data), Options{})
	if err == nil {
		t.Fatal("witness no longer fails; close the gap via TestOpenGapsStillOpen's instructions")
	}
	fl, ok := err.(*Failure)
	if !ok {
		t.Fatalf("non-Failure error: %v", err)
	}
	if gap := KnownOpenGap(fl); gap == "" {
		t.Errorf("witness failure not classified as known-open:\n%v", fl)
	}
}

// TestIncrementalGapStillOpen pins the incremental face of the
// subsumption gap: the benchmark+tweak pair named by
// IncrementalGapBenchmark/IncrementalGapTweak must still diverge under
// CheckIncremental, and the divergence must classify as the known gap
// (so the edit-oracle fuzz rung skips rediscoveries instead of going
// red). If the pair stops failing, the gap has been closed: delete this
// test and the incremental arm of KnownOpenGap's signature.
func TestIncrementalGapStillOpen(t *testing.T) {
	b, ok := workload.ByName(IncrementalGapBenchmark)
	if !ok {
		t.Fatalf("no benchmark %q", IncrementalGapBenchmark)
	}
	edited, ok := workload.TweakNthStatement(b.Source, IncrementalGapTweak)
	if !ok {
		t.Fatal("witness tweak out of range")
	}
	err := CheckIncremental(b.Name+"+tweak", b.Source, edited, Options{})
	if err == nil {
		t.Fatal("incremental witness no longer diverges; close the gap (see comment above)")
	}
	fl, ok := err.(*Failure)
	if !ok {
		t.Fatalf("non-Failure error: %v", err)
	}
	if gap := KnownOpenGap(fl); gap == "" {
		t.Errorf("incremental witness failure not classified as known-open:\n%v", fl)
	}
}

// TestKnownOpenGapRejectsOtherFailures pins the classifier's precision
// on synthetic failures adjacent to the real signature.
func TestKnownOpenGapRejectsOtherFailures(t *testing.T) {
	mk := func(stage, detail string) *Failure {
		return &Failure{Stage: stage, Name: "t", Detail: detail}
	}
	cases := []struct {
		name string
		f    *Failure
		want bool
	}{
		{"stride1-only", mk(StageEquivalence,
			"fullpass vs worklist: solutions differ; first divergence:\n"+
				"a: $t1 -> {g0, g0+0%1, g1}\nb: $t1 -> {g0, g1}"), true},
		{"plain-shadow-of-agreed-stride1", mk(StageIncremental,
			"incremental vs cold: solutions differ; first divergence:\n"+
				"a: op -> {f0, f0+0%1, f1+0%1}\nb: op -> {f0+0%1, f1+0%1}"), true},
		{"plain-extra-without-twin", mk(StageIncremental,
			"incremental vs cold: solutions differ; first divergence:\n"+
				"a: op -> {f0, f1+0%1}\nb: op -> {f1+0%1}"), false},
		{"plain-twin-on-one-side-only", mk(StageIncremental,
			"incremental vs cold: solutions differ; first divergence:\n"+
				"a: op -> {f0, f0+0%1}\nb: op -> {}"), false},
		{"concrete-block-extra", mk(StageEquivalence,
			"fullpass vs worklist: solutions differ; first divergence:\n"+
				"a: $t1 -> {g0, g2}\nb: $t1 -> {g0}"), false},
		{"wider-stride", mk(StageEquivalence,
			"fullpass vs worklist: solutions differ; first divergence:\n"+
				"a: p0 -> {arr0+0%4}\nb: p0 -> {}"), false},
		{"different-locations", mk(StageEquivalence,
			"fullpass vs worklist: solutions differ; first divergence:\n"+
				"a: $t1 -> {g0+0%1}\nb: $t2 -> {g0}"), false},
		{"count-mismatch", mk(StageEquivalence,
			"fullpass vs worklist: solutions differ; first divergence:\n"+
				"(line-count mismatch: 3 vs 4)"), false},
		{"other-stage", mk(StageSoundness, "dynamic fact missing"), false},
		{"ptf-count", mk(StageEquivalence, "parallel2 vs worklist: PTFs 3/4"), false},
	}
	for _, c := range cases {
		got := KnownOpenGap(c.f) != ""
		if got != c.want {
			t.Errorf("%s: classified known=%v, want %v", c.name, got, c.want)
		}
	}
}
