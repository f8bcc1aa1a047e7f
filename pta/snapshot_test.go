package pta

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"wlpa/internal/workload"
)

// normNames treats nil and empty answers as equal (the live path
// returns nil where the snapshot may hold an empty interned slice).
func normNames(s []string) string {
	if len(s) == 0 {
		return "<empty>"
	}
	return strings.Join(s, ",")
}

// roundTrippedSnapshot builds, encodes and decodes a snapshot,
// exercising the full serialization path.
func roundTrippedSnapshot(t *testing.T, r *Result, opts *SnapshotOptions) *Snapshot {
	t.Helper()
	snap, err := r.Snapshot(opts)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	data, err := snap.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	dec, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatalf("DecodeSnapshot: %v", err)
	}
	return dec
}

// TestSnapshotRoundTrip is the property test pinning the snapshot's
// fidelity: for every benchmark, a decoded snapshot answers the whole
// query surface — PointsTo, PointsToAt (every proc × var × node line ×
// star depth), MayAlias, Describe, CallGraph, ModRefDump — identically
// to the live in-process Result it froze.
func TestSnapshotRoundTrip(t *testing.T) {
	suite := workload.Suite()
	if len(suite) == 0 {
		t.Skip("no benchmark sources")
	}
	if testing.Short() && len(suite) > 4 {
		suite = suite[:4]
	}
	for _, b := range suite {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			r, err := AnalyzeSource(b.Name+".c", b.Source, nil)
			if err != nil {
				t.Fatalf("analyze: %v", err)
			}
			snap := roundTrippedSnapshot(t, r, nil)

			if got, want := snap.Describe(), r.Describe(); got != want {
				t.Errorf("Describe mismatch:\n got %q\nwant %q", got, want)
			}
			if got, want := snap.ModRefDump(), r.ModRefDump(); normLines(got) != normLines(want) {
				t.Errorf("ModRefDump mismatch")
			}
			gotCG, wantCG := snap.CallGraph(), r.CallGraph()
			if fmt.Sprint(gotCG) != fmt.Sprint(wantCG) {
				t.Errorf("CallGraph mismatch:\n got %v\nwant %v", gotCG, wantCG)
			}

			globals := r.Globals()
			for _, g := range globals {
				if got, want := snap.PointsTo(g), r.PointsTo(g); normNames(got) != normNames(want) {
					t.Errorf("PointsTo(%s): got %v want %v", g, got, want)
				}
			}
			for i := 0; i < len(globals) && i < 12; i++ {
				for j := i + 1; j < len(globals) && j < 12; j++ {
					p, q := globals[i], globals[j]
					if got, want := snap.MayAlias(p, q), r.MayAlias(p, q); got != want {
						t.Errorf("MayAlias(%s,%s): got %v want %v", p, q, got, want)
					}
				}
			}

			queries := 0
			for pi := range snap.Procs {
				ps := &snap.Procs[pi]
				// Query at every distinct node line, one line past the
				// last, and line 0 (entry fallback).
				lines := map[int]bool{0: true}
				maxLine := 0
				for _, l := range ps.Lines {
					if l > 0 {
						lines[l] = true
						if l > maxLine {
							maxLine = l
						}
					}
				}
				lines[maxLine+1] = true
				for vi := range ps.Vars {
					name := ps.Vars[vi].Name
					for line := range lines {
						for stars := 0; stars <= MaxQueryDepth; stars++ {
							expr := strings.Repeat("*", stars) + name
							got := snap.PointsToAt(ps.Name, line, expr)
							want := r.PointsToAt(ps.Name, line, expr)
							if normNames(got) != normNames(want) {
								t.Fatalf("PointsToAt(%s, %d, %s): got %v want %v",
									ps.Name, line, expr, got, want)
							}
							queries++
						}
					}
				}
			}
			if queries == 0 {
				t.Fatalf("no PointsToAt queries exercised")
			}

			// Unknown names answer nil on both sides.
			if snap.PointsToAt("no_such_proc", 1, "p") != nil {
				t.Errorf("unknown proc answered non-nil")
			}
			if snap.PointsToAt("main", 1, "no_such_var_xyz") != nil {
				t.Errorf("unknown var answered non-nil")
			}
			if snap.PointsTo("no_such_global_xyz") != nil {
				t.Errorf("unknown global answered non-nil")
			}
		})
	}
}

func normLines(s []string) string { return strings.Join(s, "\n") }

// TestSnapshotBytesDeterministic pins the bit-identity guarantee the
// daemon's warm-cache path relies on: independent analyses of the same
// program — run concurrently with other programs' analyses, as the
// daemon runs requests — encode to identical bytes.
func TestSnapshotBytesDeterministic(t *testing.T) {
	suite := workload.Suite()
	if len(suite) == 0 {
		t.Skip("no benchmark sources")
	}
	n := len(suite)
	if testing.Short() && n > 3 {
		n = 3
	}
	for _, b := range suite[:n] {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			var encs [][]byte
			for i := 0; i < 3; i++ {
				r, err := AnalyzeSource(b.Name+".c", b.Source, nil)
				if err != nil {
					t.Fatalf("analyze: %v", err)
				}
				snap, err := r.Snapshot(&SnapshotOptions{Fingerprint: "fp"})
				if err != nil {
					t.Fatalf("Snapshot: %v", err)
				}
				data, err := snap.Encode()
				if err != nil {
					t.Fatalf("Encode: %v", err)
				}
				encs = append(encs, data)
			}
			if !bytes.Equal(encs[0], encs[1]) || !bytes.Equal(encs[0], encs[2]) {
				t.Fatalf("snapshot bytes differ across runs (lens %d, %d, %d)",
					len(encs[0]), len(encs[1]), len(encs[2]))
			}
		})
	}
}

// TestSnapshotDiagnostics checks embedded checker findings survive the
// round trip with identical rendering and fingerprints.
func TestSnapshotDiagnostics(t *testing.T) {
	fixtures := workload.BugFixtures()
	if len(fixtures) == 0 {
		t.Skip("no bug fixtures")
	}
	var names []string
	for name := range fixtures {
		names = append(names, name)
	}
	sort.Strings(names)
	tested := 0
	for _, name := range names {
		if tested >= 3 {
			break
		}
		src := fixtures[name]
		r, err := AnalyzeSource(name+".c", src, nil)
		if err != nil {
			continue
		}
		want, err := r.Check(nil)
		if err != nil {
			t.Fatalf("%s: Check: %v", name, err)
		}
		if len(want) == 0 {
			continue
		}
		tested++
		snap := roundTrippedSnapshot(t, r, &SnapshotOptions{Diagnostics: true})
		got := snap.Diagnostics()

		var wantJSON, gotJSON bytes.Buffer
		if err := RenderJSON(&wantJSON, want); err != nil {
			t.Fatal(err)
		}
		if err := RenderJSON(&gotJSON, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantJSON.Bytes(), gotJSON.Bytes()) {
			t.Errorf("%s: diagnostics JSON differs:\n got %s\nwant %s",
				name, gotJSON.String(), wantJSON.String())
		}
		for i := range want {
			if Fingerprint(want[i]) != Fingerprint(got[i]) {
				t.Errorf("%s: fingerprint %d differs", name, i)
			}
		}
	}
	if tested == 0 {
		t.Skip("no fixture produced diagnostics")
	}
}

// TestDecodeSnapshotRejectsBadInput: corrupted or foreign bytes must
// error out, never yield a half-valid snapshot.
func TestDecodeSnapshotRejectsBadInput(t *testing.T) {
	r, err := AnalyzeSource("t.c", "int x; int *p; int main(void) { p = &x; return 0; }", nil)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := r.Snapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSnapshot(data); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	if _, err := DecodeSnapshot(data[:len(data)/2]); err == nil {
		t.Errorf("truncated snapshot accepted")
	}
	if _, err := DecodeSnapshot([]byte("not json at all")); err == nil {
		t.Errorf("garbage accepted")
	}
	wrong := bytes.Replace(data, []byte(SnapshotFormat), []byte("wlpa/snapshot/v0"), 1)
	if _, err := DecodeSnapshot(wrong); err == nil {
		t.Errorf("wrong format version accepted")
	}
}
