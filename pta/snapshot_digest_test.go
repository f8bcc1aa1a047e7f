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
)

var updateDigests = flag.Bool("update-digests", false,
	"rewrite testdata/snapshot_digests.txt from the current snapshot builder")

const snapshotDigestsFile = "testdata/snapshot_digests.txt"

// snapshotDigestLines returns one line per (program, diagnostics) pair:
// "<program> diags=<bool> <length> <sha256>" of Snapshot().Encode(),
// over the suite programs and the bug_* fixtures, sorted.
func snapshotDigestLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	for name, src := range suiteAndFixtures() {
		r, err := AnalyzeSource(name+".c", src, nil)
		if err != nil {
			t.Fatalf("%s: analyze: %v", name, err)
		}
		for _, diags := range []bool{false, true} {
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
	}
	sort.Strings(lines)
	return lines
}

// TestSnapshotGoldenDigests pins the encoded snapshot bytes across
// commits: a change to the snapshot builder must reproduce every
// recorded digest, so "byte-identical to the parent" is checked by the
// suite instead of by hand. Regenerate only for an intended format
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
