package main

import (
	"context"
	"errors"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestNonPositiveTimeoutRejected runs serve with -timeout 0 and -1s: the
// daemon must exit 2 before serving. A non-positive budget means "no
// limit" to the analysis and the checker, but the HTTP write deadline is
// derived from it, so such a daemon would cut off slow responses.
func TestNonPositiveTimeoutRejected(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "wlpad")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, timeout := range []string{"0", "-1s"} {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		out, err := exec.CommandContext(ctx, bin, "serve", "-timeout", timeout, "-addr", "127.0.0.1:0").CombinedOutput()
		expired := ctx.Err() != nil
		cancel()
		var exit *exec.ExitError
		if expired || !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("wlpad serve -timeout %s: err = %v (deadline hit: %v), want exit status 2\n%s", timeout, err, expired, out)
		}
	}
}
