package pta

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"wlpa/internal/workload"
)

var updateDigests = flag.Bool("update-digests", false,
	"rewrite testdata/snapshot_digests.txt from the current snapshot builder")

const snapshotDigestsFile = "testdata/snapshot_digests.txt"

// snapshotDigestLines returns the pinned lines, sorted: per program a
// "<program> diags=<bool> <length> <sha256>" line of Snapshot().Encode()
// and a solution line (solutionDigestLine). The programs are the suite
// and the bug_* fixtures, with and without diagnostics, and a fixed
// generated set (digestGenerated), with diagnostics only.
func snapshotDigestLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	add := func(name, src string, diagModes ...bool) {
		r, err := AnalyzeSource(name+".c", src, nil)
		if err != nil {
			t.Fatalf("%s: analyze: %v", name, err)
		}
		for _, diags := range diagModes {
			snap, err := r.Snapshot(&SnapshotOptions{Diagnostics: diags})
			if err != nil {
				t.Fatalf("%s: Snapshot: %v", name, err)
			}
			data, err := snap.Encode()
			if err != nil {
				t.Fatalf("%s: Encode: %v", name, err)
			}
			sum := sha256.Sum256(data)
			lines = append(lines, fmt.Sprintf("%s diags=%v %d %s",
				name, diags, len(data), hex.EncodeToString(sum[:])))
		}
		lines = append(lines, solutionDigestLine(name, r))
	}
	for name, src := range suiteAndFixtures() {
		add(name, src, false, true)
	}
	for name, src := range digestGenerated() {
		add(name, src, true)
	}
	sort.Strings(lines)
	return lines
}

// digestGenerated returns the generated programs the digest file pins:
// DefaultGenConfig(s) and FuzzGenConfig(s, s*2654435761) for s = 1..32.
func digestGenerated() map[string]string {
	progs := map[string]string{}
	for s := int64(1); s <= 32; s++ {
		progs[fmt.Sprintf("gen_default_%02d", s)] = workload.Generate(workload.DefaultGenConfig(s))
		progs[fmt.Sprintf("gen_fuzz_%02d", s)] = workload.Generate(workload.FuzzGenConfig(s, uint32(s*2654435761)))
	}
	return progs
}

// solutionDigestLine pins r's collapsed solution and its Table 2
// counts: "<program> solution ptfs=<n> params=<n> <sha256>", the digest
// over one "loc=[targets]" line per location of Solution(), targets
// sorted. The lines are hashed as a sorted multiset, because locals of
// different procedures share names and Locations() order is not total.
func solutionDigestLine(name string, r *Result) string {
	sol := r.an.Solution()
	var rows []string
	for _, loc := range sol.Locations() {
		var targets []string
		for _, l := range sol.PointsTo(loc).Locs() {
			targets = append(targets, l.String())
		}
		sort.Strings(targets)
		rows = append(rows, loc.String()+"=["+strings.Join(targets, " ")+"]")
	}
	sort.Strings(rows)
	sum := sha256.Sum256([]byte(strings.Join(rows, "\n")))
	st := r.Stats()
	return fmt.Sprintf("%s solution ptfs=%d params=%d %s",
		name, st.PTFs, st.Params, hex.EncodeToString(sum[:]))
}

// TestSnapshotGoldenDigests pins the encoded snapshot bytes, the
// collapsed solution and the PTF and parameter counts across commits: a
// change to the engine or the snapshot builder must reproduce every
// recorded line, so "identical to the parent" is checked by the suite
// instead of by hand. Regenerate only for an intended format
// change: go test ./pta -run TestSnapshotGoldenDigests -update-digests.
func TestSnapshotGoldenDigests(t *testing.T) {
	got := snapshotDigestLines(t)
	if *updateDigests {
		data := strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(snapshotDigestsFile, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(snapshotDigestsFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d digests, %s holds %d", len(got), snapshotDigestsFile, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("snapshot digest changed:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
