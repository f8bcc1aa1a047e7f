package irhash

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"wlpa/internal/cparse"
	"wlpa/internal/sem"
	"wlpa/internal/workload"
)

var updateDigests = flag.Bool("update-digests", false,
	"rewrite testdata/digests.txt from the current hash")

const digestsFile = "testdata/digests.txt"

// digestPrograms returns the programs the digest file pins: the suite,
// the bug_* fixtures, and DefaultGenConfig(s) and
// FuzzGenConfig(s, s*2654435761) for s = 1..32.
func digestPrograms() map[string]string {
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

// digestLines returns the pinned lines, sorted: per program a
// "<program> root <Root>" and a "<program> globals <Globals>" line, and
// per procedure a "<program> proc <name> ir=<IR> closure=<Closure>" line.
func digestLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	for name, src := range digestPrograms() {
		f, err := cparse.ParseSource(name+".c", src)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		prog, err := sem.Check(f)
		if err != nil {
			t.Fatalf("%s: sem: %v", name, err)
		}
		h, err := Hash(prog)
		if err != nil {
			t.Fatalf("%s: hash: %v", name, err)
		}
		lines = append(lines, name+" root "+h.Root, name+" globals "+h.Globals)
		for _, p := range h.Procs {
			lines = append(lines, fmt.Sprintf("%s proc %s ir=%s closure=%s", name, p.Name, p.IR, p.Closure))
		}
	}
	sort.Strings(lines)
	return lines
}

// TestGoldenDigests pins every cache key across commits: a change to
// the rendering must reproduce each recorded Root, Globals, IR and
// Closure digest, because a key that moves silently turns every
// persisted store entry into a miss. Regenerate only for an intended
// key change: go test ./internal/irhash -run TestGoldenDigests
// -update-digests.
func TestGoldenDigests(t *testing.T) {
	got := digestLines(t)
	if *updateDigests {
		data := strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(digestsFile, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(digestsFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d digests, %s holds %d", len(got), digestsFile, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("digest changed:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
