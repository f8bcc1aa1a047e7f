// Pins every reproducer under testdata/open as a known, still-open
// oracle failure (see testdata/open/README.md): each file must FAIL
// the differential oracle at the stage named in its header. If one
// stops failing, the gap has been closed — the test then demands the
// file be promoted to testdata/regressions/ (with a root-cause
// comment), where TestRegressionReplay keeps it fixed forever.
// External test package for the same reason as the replay test:
// difftest imports workload.
package workload_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wlpa/internal/difftest"
)

func TestOpenGapsStillOpen(t *testing.T) {
	dir := filepath.Join("testdata", "open")
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			t.Skip("no open gaps")
		}
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".c") {
			continue
		}
		t.Run(e.Name(), func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			err = difftest.CheckProgram(e.Name(), string(data), difftest.Options{})
			if err == nil {
				t.Fatalf("%s no longer fails its oracle stage: the gap is closed. "+
					"Add a root-cause comment and move the file to testdata/regressions/ "+
					"so the fix stays pinned.", e.Name())
			}
			fl, ok := err.(*difftest.Failure)
			if !ok {
				t.Fatalf("oracle returned non-Failure error: %v", err)
			}
			// The header's "reduced reproducer (stage X)" line names the
			// stage this gap is pinned to; failing at a different stage
			// would mean a new, unrelated bug.
			if want := "(stage " + fl.Stage + ")"; !strings.Contains(string(data), want) {
				t.Fatalf("%s fails at stage %q, but its header pins a different stage:\n%v",
					e.Name(), fl.Stage, fl)
			}
		})
	}
}
