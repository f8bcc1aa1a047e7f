package analysis_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"wlpa/internal/analysis"
	"wlpa/internal/libsum"
	"wlpa/internal/workload"
)

// ptfRecords renders every record of every PTF of a, PTFs in AllPTFs
// order: "<proc>#<index> <location> @<node> strong=<flag> [<values>]".
func ptfRecords(a *analysis.Analysis) []string {
	var out []string
	seen := map[string]int{}
	for _, p := range a.AllPTFs() {
		i := seen[p.Proc.Name]
		seen[p.Proc.Name]++
		for _, loc := range p.Pts.Locations() {
			for _, r := range p.Pts.Records(loc) {
				var vals []string
				for _, l := range r.Vals.Locs() {
					vals = append(vals, l.String())
				}
				sort.Strings(vals)
				out = append(out, fmt.Sprintf("%s#%d %s @%d strong=%v [%s]",
					p.Proc.Name, i, loc, r.Node.ID, r.Strong, strings.Join(vals, " ")))
			}
		}
	}
	return out
}

// memoPrograms is the suite, the bug fixtures and the 64 generated
// programs pta's snapshot digests pin.
func memoPrograms() map[string]string {
	progs := map[string]string{}
	for _, b := range workload.Suite() {
		progs[b.Name] = b.Source
	}
	for name, src := range workload.BugFixtures() {
		progs["bug_"+name] = src
	}
	for s := int64(1); s <= 32; s++ {
		progs[fmt.Sprintf("gen_default_%02d", s)] = workload.Generate(workload.DefaultGenConfig(s))
		progs[fmt.Sprintf("gen_fuzz_%02d", s)] = workload.Generate(workload.FuzzGenConfig(s, uint32(s*2654435761)))
	}
	return progs
}

// TestFixpointIndependentOfCollection checks that the fixpoint does not
// depend on CollectSolution: a run without it and a CollectSolution run
// stopped before its collection pass agree on every PTF's records and
// on the PTF and parameter counts. The apply memo used to be on only
// without CollectSolution and to skip applications that were not
// no-ops, so the two disagreed on 12 of 625 programs, eqntott and
// football among them.
func TestFixpointIndependentOfCollection(t *testing.T) {
	for name, src := range memoPrograms() {
		t.Run(name, func(t *testing.T) {
			bare, _ := runOpts(t, src, analysis.Options{})
			prog := checkProgram(t, src)
			coll, err := analysis.New(prog, analysis.Options{Lib: libsum.Summaries(), CollectSolution: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := coll.RunFixpoint(); err != nil {
				t.Fatal(err)
			}
			bs, cs := bare.Stats(), coll.Stats()
			if bs.PTFs != cs.PTFs || bs.Params != cs.Params {
				t.Errorf("bare run: %d PTFs, %d params; collecting run: %d, %d",
					bs.PTFs, bs.Params, cs.PTFs, cs.Params)
			}
			got, want := ptfRecords(bare), ptfRecords(coll)
			if len(got) != len(want) {
				t.Fatalf("bare run has %d records, collecting run %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("record %d:\n bare       %s\n collecting %s", i, got[i], want[i])
				}
			}
		})
	}
}

// TestApplyMemoRereadsDestinations pins two applications the memo must
// not skip, one per part of its destination check; a memo that keyed on
// the callee's version and the bindings alone skipped both in a run
// without CollectSolution.
func TestApplyMemoRereadsDestinations(t *testing.T) {
	progs := map[string]string{}
	for _, b := range workload.Suite() {
		progs[b.Name] = b.Source
	}
	cases := []struct{ prog, record string }{
		// A weak write merges the destination's incoming value: at the
		// call in parse_primary the callee's summary and the bindings
		// are unchanged when the incoming value of new_node's heap block
		// at offset 16 grows to point into the block, so only the
		// location's generation shows that the merge must be made again.
		{"eqntott", "parse_primary#0 heap@t.c:58:43+16 @11 strong=false [<null> heap@t.c:58:43]"},
		// A strong write is strong only while its destination is
		// precise: the parameter behind 2_1_g loses uniqueness after
		// the call in touchdown wrote it strongly.
		{"football", "touchdown#0 2_1_g+20 @1 strong=false []"},
	}
	for _, c := range cases {
		a, _ := runOpts(t, progs[c.prog], analysis.Options{})
		found := false
		for _, r := range ptfRecords(a) {
			found = found || r == c.record
		}
		if !found {
			t.Errorf("%s: no record %q", c.prog, c.record)
		}
	}
}
