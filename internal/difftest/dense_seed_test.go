package difftest

import (
	"testing"

	"wlpa/internal/analysis"
	"wlpa/internal/cparse"
	"wlpa/internal/libsum"
	"wlpa/internal/sem"
)

// TestDenseRowCorpusSeed pins the fuzz corpus entry dense_rows (seed
// 21, all feature bits): its generated program must keep driving
// points-to rows past memmod.DenseThreshold, so the oracle lattice
// keeps exercising the hybrid sparse/dense row representation. If a
// generator change makes this seed shallow again, find a new one and
// update both the corpus file and this test.
func TestDenseRowCorpusSeed(t *testing.T) {
	name, src, _ := DecodeInput(21, 16383)
	f, err := cparse.ParseSource(name, src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := sem.Check(f)
	if err != nil {
		t.Fatalf("sem: %v", err)
	}
	an, err := analysis.New(prog, analysis.Options{Lib: libsum.Summaries()})
	if err != nil {
		t.Fatal(err)
	}
	if err := an.Run(); err != nil {
		t.Fatal(err)
	}
	if dr := an.Stats().DenseRows; dr == 0 {
		t.Fatalf("DenseRows = 0, want > 0 (the dense_rows corpus seed no longer forces bitset rows)")
	}
}
