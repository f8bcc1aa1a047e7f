// Replays every reduced reproducer under testdata/regressions through
// the full differential oracle, so any bug the harness ever caught
// stays caught. External test package: difftest imports workload, so
// an internal test here would be an import cycle.
package workload_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wlpa/internal/difftest"
)

func TestRegressionReplay(t *testing.T) {
	dir := filepath.Join("testdata", "regressions")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".c") {
			continue
		}
		ran++
		t.Run(e.Name(), func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			src := string(data)
			if !strings.Contains(src, "Root cause") {
				t.Errorf("%s is missing its root-cause comment", e.Name())
			}
			if err := difftest.CheckProgram(e.Name(), src, difftest.Options{}); err != nil {
				t.Fatalf("regression resurfaced: %v", err)
			}
		})
	}
	if ran == 0 {
		t.Fatal("no reproducers found; the regressions directory should never be empty")
	}
}
