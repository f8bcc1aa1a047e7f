package pta

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// snapshotBytes analyzes and encodes the full query snapshot including
// diagnostics — the widest bit-identity surface a result exposes.
func snapshotBytes(t *testing.T, r *Result) []byte {
	t.Helper()
	snap, err := r.Snapshot(&SnapshotOptions{Diagnostics: true})
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	data, err := snap.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return data
}

// TestIncrementalNoopEdit re-analyzes every benchmark against itself:
// all procedures are clean, nothing reconverges, and the snapshot must
// be byte-identical to the cold run's.
func TestIncrementalNoopEdit(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "internal", "workload", "testdata", "*.c"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no benchmark sources: %v", err)
	}
	for _, f := range files {
		name := filepath.Base(f)
		if strings.HasPrefix(name, "bug_") {
			continue
		}
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			opts := &Options{}
			cold, err := AnalyzeSource(name, string(src), opts)
			if err != nil {
				t.Fatalf("cold: %v", err)
			}
			coldSnap := snapshotBytes(t, cold)

			base, err := AnalyzeSource(name, string(src), opts)
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			bl, err := NewBaseline(base, opts)
			if err != nil {
				t.Fatalf("NewBaseline: %v", err)
			}
			inc, err := AnalyzeIncremental(bl, Source{name: string(src)}, name, opts)
			if err != nil {
				t.Fatalf("incremental: %v", err)
			}
			st := inc.Incremental()
			if st == nil || st.Fallback != "" {
				t.Fatalf("expected incremental run, got %+v", st)
			}
			if st.DirtyProcs != 0 {
				t.Errorf("no-op edit dirtied %d procs", st.DirtyProcs)
			}
			if !bl.Consumed() {
				t.Error("baseline not consumed")
			}
			incSnap := snapshotBytes(t, inc)
			if !bytes.Equal(coldSnap, incSnap) {
				t.Errorf("no-op incremental snapshot differs from cold (%d vs %d bytes)", len(coldSnap), len(incSnap))
			}
		})
	}
}

// TestIncrementalSingleProcEdit applies a one-procedure edit and checks
// the incremental result bit-identical to a cold analysis of the edited
// program, with exactly the edit's dirty cone reconverged. It runs with
// default options on four Ps, as a multi-core daemon does: the graft
// must engage whatever the host's core count.
func TestIncrementalSingleProcEdit(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	base := `
int gx, gy;
int *fp, *gp;
int hx, hy;
int *hp;
void g(void) { gp = &gy; }
void f(void) { fp = &gx; g(); }
void h(void) { hp = &hx; }
int main(void) { f(); h(); return 0; }
`
	edited := strings.Replace(base, "hp = &hx;", "hp = &hy;", 1)
	if edited == base {
		t.Fatal("edit did not apply")
	}
	cold, err := AnalyzeSource("edit.c", edited, nil)
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	coldSnap := snapshotBytes(t, cold)

	baseRes, err := AnalyzeSource("edit.c", base, nil)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	bl, err := NewBaseline(baseRes, nil)
	if err != nil {
		t.Fatalf("NewBaseline: %v", err)
	}
	inc, err := AnalyzeIncremental(bl, Source{"edit.c": edited}, "edit.c", nil)
	if err != nil {
		t.Fatalf("incremental: %v", err)
	}
	st := inc.Incremental()
	if st == nil || st.Fallback != "" {
		t.Fatalf("expected incremental run, got %+v", st)
	}
	// h's own IR changed; main transitively calls h. f and g are clean.
	if st.CleanProcs != 2 || st.DirtyProcs != 2 {
		t.Errorf("clean/dirty = %d/%d, want 2/2", st.CleanProcs, st.DirtyProcs)
	}
	if st.RestoredPTFs == 0 || st.ReconvergedPTFs == 0 {
		t.Errorf("restored/reconverged = %d/%d, want both > 0", st.RestoredPTFs, st.ReconvergedPTFs)
	}
	incSnap := snapshotBytes(t, inc)
	if !bytes.Equal(coldSnap, incSnap) {
		t.Errorf("incremental snapshot differs from cold:\ncold: %s\ninc:  %s", coldSnap, incSnap)
	}
	if got := inc.PointsTo("hp"); len(got) != 1 || got[0] != "hy" {
		t.Errorf("hp points to %v, want [hy]", got)
	}
}

// TestIncrementalFallbacks pins the refusal paths: changed globals,
// incompatible options, and a consumed baseline all fall back to a
// cold run with a reason, still producing correct results.
func TestIncrementalFallbacks(t *testing.T) {
	base := `
int x, y;
int *p;
void f(void) { p = &x; }
int main(void) { f(); return 0; }
`
	opts := &Options{}
	mk := func() *Baseline {
		r, err := AnalyzeSource("t.c", base, opts)
		if err != nil {
			t.Fatal(err)
		}
		bl, err := NewBaseline(r, opts)
		if err != nil {
			t.Fatal(err)
		}
		return bl
	}

	t.Run("globals-changed", func(t *testing.T) {
		edited := strings.Replace(base, "int x, y;", "int x, y, z;", 1)
		r, err := AnalyzeIncremental(mk(), Source{"t.c": edited}, "t.c", opts)
		if err != nil {
			t.Fatal(err)
		}
		if st := r.Incremental(); st == nil || st.Fallback == "" {
			t.Errorf("expected fallback, got %+v", st)
		}
		if got := r.PointsTo("p"); len(got) != 1 || got[0] != "x" {
			t.Errorf("p points to %v, want [x]", got)
		}
	})

	t.Run("options-differ", func(t *testing.T) {
		r, err := AnalyzeIncremental(mk(), Source{"t.c": base}, "t.c", &Options{CombineOffsets: true})
		if err != nil {
			t.Fatal(err)
		}
		if st := r.Incremental(); st == nil || st.Fallback == "" {
			t.Errorf("expected fallback, got %+v", st)
		}
	})

	t.Run("consumed", func(t *testing.T) {
		bl := mk()
		if _, err := AnalyzeIncremental(bl, Source{"t.c": base}, "t.c", opts); err != nil {
			t.Fatal(err)
		}
		r, err := AnalyzeIncremental(bl, Source{"t.c": base}, "t.c", opts)
		if err != nil {
			t.Fatal(err)
		}
		if st := r.Incremental(); st == nil || st.Fallback == "" {
			t.Errorf("expected fallback, got %+v", st)
		}
	})

	t.Run("options-baseline-field", func(t *testing.T) {
		bl := mk()
		o := &Options{Baseline: bl}
		r, err := Analyze(Source{"t.c": base}, "t.c", o)
		if err != nil {
			t.Fatal(err)
		}
		if st := r.Incremental(); st == nil || st.Fallback != "" {
			t.Errorf("Analyze with Options.Baseline did not run incrementally: %+v", st)
		}
	})
}
