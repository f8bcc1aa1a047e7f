package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestUnknownFormatFailsBeforeWork runs the command with an unknown
// -format and a -write-baseline target: it must exit 2 without writing
// the baseline, because usage errors are reported before any analysis.
func TestUnknownFormatFailsBeforeWork(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "wlcheck")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	src := filepath.Join(dir, "p.c")
	if err := os.WriteFile(src, []byte("int main(void) { return 0; }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(dir, "b.txt")
	out, err := exec.Command(bin, "-format=xml", "-write-baseline", base, src).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("wlcheck -format=xml: err = %v, want exit status 2\n%s", err, out)
	}
	if _, err := os.Stat(base); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("baseline written despite the usage error (stat: %v)", err)
	}
}
