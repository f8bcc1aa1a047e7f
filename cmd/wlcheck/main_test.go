package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
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

// TestDemandJSONStdoutIsOneDocument runs -demand with -format json: the
// site answer goes to stderr, so stdout parses as one JSON document.
func TestDemandJSONStdoutIsOneDocument(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "wlcheck")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	src := filepath.Join(dir, "d.c")
	prog := "int g;\nint *gp;\nint main(void) {\n    gp = &g;\n    return 0;\n}\n"
	if err := os.WriteFile(src, []byte(prog), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, "-format=json", "-demand", "main:5:gp", src)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("wlcheck: %v\n%s", err, stderr.Bytes())
	}
	var doc any
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
		t.Fatalf("stdout is not one JSON document: %v\n%s", err, stdout.Bytes())
	}
	if !strings.Contains(stderr.String(), "main:5 gp => {g}") {
		t.Fatalf("stderr lacks the site answer:\n%s", stderr.Bytes())
	}
}
