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

// encodedSnapshot builds and encodes r's snapshot.
func encodedSnapshot(t *testing.T, r *Result, opts *SnapshotOptions) []byte {
	t.Helper()
	snap, err := r.Snapshot(opts)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	data, err := snap.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return data
}

// TestSnapshotBytesDeterministic pins the bit-identity guarantee the
// daemon's warm-cache path relies on: independent analyses of the same
// program — run concurrently with other programs' analyses, as the
// daemon runs requests — encode to identical bytes, and a result
// trimmed into a warm-edit baseline (NewBaseline drops its lookup
// caches and MOD/REF table) encodes, diagnostics included, to the bytes
// it encoded to before.
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
				encs = append(encs, encodedSnapshot(t, r, &SnapshotOptions{Fingerprint: "fp"}))
			}
			if !bytes.Equal(encs[0], encs[1]) || !bytes.Equal(encs[0], encs[2]) {
				t.Fatalf("snapshot bytes differ across runs (lens %d, %d, %d)",
					len(encs[0]), len(encs[1]), len(encs[2]))
			}
		})
	}
	for name, src := range suiteAndFixtures() {
		t.Run("baseline/"+name, func(t *testing.T) {
			t.Parallel()
			r, err := AnalyzeSource(name+".c", src, nil)
			if err != nil {
				t.Fatalf("analyze: %v", err)
			}
			opts := &SnapshotOptions{Diagnostics: true}
			before := encodedSnapshot(t, r, opts)
			if _, err := NewBaseline(r, nil); err != nil {
				t.Fatal(err)
			}
			if after := encodedSnapshot(t, r, opts); !bytes.Equal(before, after) {
				t.Fatalf("snapshot bytes differ after NewBaseline (lens %d, %d)", len(before), len(after))
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

	// Answer vectors PointsToAt would index out of range are rejected,
	// with the procedure and the variable named.
	doc := func(procs string) []byte {
		return []byte(`{"format":"` + SnapshotFormat + `","globals":[],"procs":` + procs +
			`,"answers":[[]],"calls":[],"mod_ref":[],"stats":{}}`)
	}
	valid := doc(`[{"name":"f","lines":[1,1],"cols":[1,1],"vars":[{"name":"p","depths":[[0],[0,0],[0]]}]}]`)
	if s, err := DecodeSnapshot(valid); err != nil {
		t.Errorf("well-formed hand-written snapshot rejected: %v", err)
	} else if got := s.PointsToAt("f", 5, "*p"); got != nil {
		t.Errorf("PointsToAt(f, 5, *p) = %v, want nil", got)
	}
	for _, c := range []struct{ name, procs, want string }{
		{"cols shorter than lines",
			`[{"name":"f","lines":[1,1],"cols":[1],"vars":[{"name":"p","depths":[[0],[0],[0]]}]}]`, `"f"`},
		{"depth vector neither constant nor per line",
			`[{"name":"f","lines":[1,1],"cols":[1,1],"vars":[{"name":"p","depths":[[0],[0,0,0],[0]]}]}]`, `"f" variable "p"`},
		{"empty depth vector",
			`[{"name":"f","lines":[1,1],"cols":[1,1],"vars":[{"name":"p","depths":[[0],[],[0]]}]}]`, `"f" variable "p"`},
		{"id past the answer pool",
			`[{"name":"f","lines":[1,1],"cols":[1,1],"vars":[{"name":"p","depths":[[0],[0,1],[0]]}]}]`, `"f" variable "p"`},
		{"negative id",
			`[{"name":"f","lines":[1],"cols":[1],"vars":[{"name":"p","depths":[[0],[0],[-1]]}]}]`, `"f" variable "p"`},
	} {
		_, err := DecodeSnapshot(doc(c.procs))
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not name %s", c.name, err, c.want)
		}
	}
}

// checkEveryNode compares every answer a snapshot stores with the live
// pointsToAtNode on the result it froze: every analyzed procedure,
// every flow node, every variable and every depth 0..MaxQueryDepth.
// TestSnapshotRoundTrip reaches only the node a line resolves to; this
// also reaches the nodes the builder copies from a dominator or skips.
// It returns the number of answers compared.
func checkEveryNode(t *testing.T, r *Result, snap *Snapshot) int {
	t.Helper()
	if got, want := snap.Procedures(), r.Procedures(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("snapshot procedures %v, analyzed %v", got, want)
	}
	answers := 0
	for pi := range snap.Procs {
		ps := &snap.Procs[pi]
		cproc := r.an.Proc(ps.Name)
		if len(ps.Lines) != len(cproc.Nodes) {
			t.Fatalf("%s: %d node positions for %d nodes", ps.Name, len(ps.Lines), len(cproc.Nodes))
		}
		vars := map[string]bool{}
		for vi := range ps.Vars {
			vs := &ps.Vars[vi]
			vars[vs.Name] = true
			sym := procSymbol(cproc, vs.Name)
			if sym == nil {
				sym = r.findGlobal(vs.Name)
			}
			if sym == nil {
				t.Fatalf("%s: snapshot variable %s resolves to nothing", ps.Name, vs.Name)
			}
			for d, ids := range vs.Depths {
				if len(ids) != 1 && len(ids) != len(cproc.Nodes) {
					t.Fatalf("%s %s depth %d: %d ids for %d nodes", ps.Name, vs.Name, d, len(ids), len(cproc.Nodes))
				}
				for i, nd := range cproc.Nodes {
					id := ids[0]
					if len(ids) > 1 {
						id = ids[i]
					}
					got := snap.Answers[id]
					want := r.pointsToAtNode(ps.Name, sym, d, nd)
					if normNames(got) != normNames(want) {
						t.Fatalf("%s node %d (%s) %s%s: snapshot %v, live %v",
							ps.Name, nd.ID, nd.Pos, strings.Repeat("*", d), vs.Name, got, want)
					}
					answers++
				}
			}
		}
		names := []string{}
		for _, l := range cproc.Locals {
			names = append(names, l.Name)
		}
		for _, p := range cproc.Fn.Params {
			if p.Sym != nil {
				names = append(names, p.Sym.Name)
			}
		}
		for _, g := range r.prog.Globals {
			names = append(names, g.Name)
		}
		for _, name := range names {
			if !vars[name] {
				t.Errorf("%s: variable %s missing from the snapshot", ps.Name, name)
			}
		}
	}
	return answers
}

// suiteAndFixtures returns the suite programs and the bug fixtures
// (named bug_<fixture>), keyed by name.
func suiteAndFixtures() map[string]string {
	progs := map[string]string{}
	for _, b := range workload.Suite() {
		progs[b.Name] = b.Source
	}
	for name, src := range workload.BugFixtures() {
		progs["bug_"+name] = src
	}
	return progs
}

// TestSnapshotEveryNode checks every stored answer against the live
// query path (checkEveryNode) on the suite programs, the bug fixtures,
// the generated programs the golden digests pin (heap, structs,
// function pointers, recursion), two grafted results, a program whose
// pointers travel through integer globals, which a skip decided by C
// types would answer empty, and a strong update whose barrier first
// hides an overlapping location's record below the updating node.
func TestSnapshotEveryNode(t *testing.T) {
	progs := suiteAndFixtures()
	for name, src := range digestGenerated() {
		progs[name] = src
	}
	for name, src := range progs {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			r, err := AnalyzeSource(name+".c", src, nil)
			if err != nil {
				t.Fatalf("analyze: %v", err)
			}
			if checkEveryNode(t, r, roundTrippedSnapshot(t, r, nil)) == 0 {
				t.Fatal("no answers compared")
			}
		})
	}

	compiler, ok := workload.ByName("compiler")
	if !ok {
		t.Fatal("compiler missing from the suite")
	}
	compilerEdit, ok := workload.TweakNthStatement(compiler.Source, 1)
	if !ok {
		t.Fatal("compiler has no tweak 1")
	}
	grafts := []struct{ name, base, edited string }{
		{"graft/single-proc-edit", singleProcEditBase, singleProcEdited()},
		{"graft/compiler-tweak-1", compiler.Source, compilerEdit},
	}
	for _, g := range grafts {
		t.Run(g.name, func(t *testing.T) {
			base, err := AnalyzeSource("edit.c", g.base, nil)
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			bl, err := NewBaseline(base, nil)
			if err != nil {
				t.Fatalf("NewBaseline: %v", err)
			}
			inc, err := AnalyzeIncremental(bl, Source{"edit.c": g.edited}, "edit.c", nil)
			if err != nil {
				t.Fatalf("incremental: %v", err)
			}
			if st := inc.Incremental(); st == nil || st.Fallback != "" || st.DirtyProcs == 0 || st.RestoredPTFs == 0 {
				t.Fatalf("edit did not graft: %+v", st)
			}
			checkEveryNode(t, inc, roundTrippedSnapshot(t, inc, nil))
		})
	}

	t.Run("pointers-through-integer-globals", func(t *testing.T) {
		// long is wide enough to count as pointer-like, int is not.
		r := analyze(t, `
int x, y;
long addr = (long)&x;
int small;
int f(void) {
    int *p = (int *)addr;
    int *q = (int *)small;
    return *p + *q;
}
int main(void) { small = (int)&y; return f(); }
`)
		snap := roundTrippedSnapshot(t, r, nil)
		checkEveryNode(t, r, snap)
		for expr, want := range map[string]string{"addr": "x", "p": "x", "small": "y", "q": "y"} {
			if got := snap.PointsToAt("f", 8, expr); normNames(got) != want {
				t.Errorf("PointsToAt(f, 8, %s) = %v, want [%s]", expr, got, want)
			}
		}
	})

	t.Run("strong-update-barrier-below-its-node", func(t *testing.T) {
		// s.f = &y strongly updates s+0, which the array's strided
		// location s+0%8 overlaps. The live query after that node still
		// reads the array's older record; at the exit, which holds no
		// record, the barrier hides it, so the exit must not copy its
		// dominator's answer.
		r := analyze(t, `
int x, y;
struct S { int *f; int *arr[4]; };
struct S s;
void g(int i) {
    s.arr[i] = &x;
    s.f = &y;
}
int main(void) { g(2); return 0; }
`)
		exit, s := r.an.Proc("g").Exit, r.findGlobal("s")
		if got, dom := r.pointsToAtNode("g", s, 0, exit), r.pointsToAtNode("g", s, 0, exit.Idom); normNames(got) != "y" || normNames(dom) != "x,y" {
			t.Fatalf("live answers: s is %v at g's exit and %v at its dominator, want [y] and [x y]", got, dom)
		}
		checkEveryNode(t, r, roundTrippedSnapshot(t, r, nil))
	})
}
