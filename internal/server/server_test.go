package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wlpa/internal/store"
	"wlpa/internal/workload"
	"wlpa/pta"
)

func newTestServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Store:  st,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// editBase is a four-procedure program where editing the body of h
// (the last procedure, so no other line shifts; editChanged) must dirty
// exactly the procedures whose closure hash changes: h itself and its
// caller main — while f and g keep their PTFs.
const editBase = `
int gx, gy;
int *fp, *gp;
int hx, hy;
int *hp;
void g(void) { gp = &gy; }
void f(void) { fp = &gx; g(); }
void h(void) { hp = &hx; }
int main(void) { f(); h(); return 0; }
`

const editChanged = `
int gx, gy;
int *fp, *gp;
int hx, hy;
int *hp;
void g(void) { gp = &gy; }
void f(void) { fp = &gx; g(); }
void h(void) { hp = &hy; }
int main(void) { f(); h(); return 0; }
`

func TestColdWarmBitIdentity(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	c := &Client{Base: ts.URL}
	files := map[string]string{"edit.c": editBase}

	cold, coldSnap, err := c.Analyze(context.Background(), files, "edit.c", false)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Meta.Cache != "miss" {
		t.Fatalf("cold request: cache=%q, want miss", cold.Meta.Cache)
	}
	warm, warmSnap, err := c.Analyze(context.Background(), files, "edit.c", false)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Meta.Cache != "hit" {
		t.Fatalf("warm request: cache=%q, want hit", warm.Meta.Cache)
	}
	if !bytes.Equal(cold.Snapshot, warm.Snapshot) {
		t.Fatalf("warm snapshot bytes differ from cold")
	}

	// And both match an in-process analysis bit for bit.
	r, err := pta.Analyze(pta.Source(files), "edit.c", nil)
	if err != nil {
		t.Fatal(err)
	}
	local, err := r.Snapshot(&pta.SnapshotOptions{Fingerprint: cold.Meta.Key})
	if err != nil {
		t.Fatal(err)
	}
	localBytes, err := local.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(localBytes, cold.Snapshot) {
		t.Fatalf("served snapshot differs from in-process pta.Analyze")
	}
	if coldSnap.Describe() != warmSnap.Describe() || coldSnap.Describe() != r.Describe() {
		t.Fatalf("Describe output differs between cold/warm/local")
	}
}

// TestEditDirtiesClosureCone pins the graft's dirty set through the
// daemon: after a miss on editBase, the miss on editChanged grafts and
// reconverges exactly h and main.
func TestEditDirtiesClosureCone(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	c := &Client{Base: ts.URL}

	if _, _, err := c.Analyze(context.Background(), map[string]string{"edit.c": editBase}, "edit.c", false); err != nil {
		t.Fatal(err)
	}
	edited, _, err := c.Analyze(context.Background(), map[string]string{"edit.c": editChanged}, "edit.c", false)
	if err != nil {
		t.Fatal(err)
	}
	inc := edited.Meta.Incremental
	if edited.Meta.Cache != "miss" || inc == nil || inc.Fallback != "" {
		t.Fatalf("edited program did not graft: %+v", edited.Meta)
	}
	if want := []string{"h", "main"}; !sameStrings(inc.Dirty, want) || inc.CleanProcs != 2 {
		t.Errorf("dirty = %v with %d clean procedures, want %v with 2", inc.Dirty, inc.CleanProcs, want)
	}
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, "")
	c := &Client{Base: ts.URL}
	if err := c.Healthz(context.Background()); err != nil {
		t.Fatal(err)
	}
	files := map[string]string{"m.c": "int x; int *p; int main(void) { p = &x; return 0; }"}
	if _, _, err := c.Analyze(context.Background(), files, "m.c", false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Analyze(context.Background(), files, "m.c", false); err != nil {
		t.Fatal(err)
	}
	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Requests.Analyze != 2 || m.Requests.Hits != 1 || m.Requests.Misses != 1 {
		t.Fatalf("request counters: %+v", m.Requests)
	}
	if m.LatencyMS["total"] == nil || m.LatencyMS["total"].Count != 2 {
		t.Fatalf("latency histogram not populated: %+v", m.LatencyMS)
	}
	if m.Store.Puts == 0 {
		t.Fatalf("store stats not wired: %+v", m.Store)
	}
}

func TestDiagnosticsKeyedSeparately(t *testing.T) {
	_, ts := newTestServer(t, "")
	c := &Client{Base: ts.URL}
	files := map[string]string{"d.c": `
#include <stdlib.h>
int main(void) {
	int *p = malloc(sizeof(int));
	*p = 1;
	free(p);
	*p = 2;
	return 0;
}
`}
	plain, plainSnap, err := c.Analyze(context.Background(), files, "d.c", false)
	if err != nil {
		t.Fatal(err)
	}
	if plainSnap.HasDiags {
		t.Fatalf("plain snapshot carries diagnostics")
	}
	withDiags, diagSnap, err := c.Analyze(context.Background(), files, "d.c", true)
	if err != nil {
		t.Fatal(err)
	}
	// Different key: the diagnostics request must not be served the
	// plain entry.
	if withDiags.Meta.Cache != "miss" || withDiags.Meta.Key == plain.Meta.Key {
		t.Fatalf("diagnostics request reused plain entry: %+v", withDiags.Meta)
	}
	if !diagSnap.HasDiags || len(diagSnap.Diagnostics()) == 0 {
		t.Fatalf("expected use-after-free diagnostics, got %+v", diagSnap.Diags)
	}
	// And it is itself cacheable.
	again, _, err := c.Analyze(context.Background(), files, "d.c", true)
	if err != nil {
		t.Fatal(err)
	}
	if again.Meta.Cache != "hit" || !bytes.Equal(again.Snapshot, withDiags.Snapshot) {
		t.Fatalf("diagnostics entry not warm: %+v", again.Meta)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, "")
	c := &Client{Base: ts.URL}
	if _, _, err := c.Analyze(context.Background(), nil, "x.c", false); err == nil {
		t.Errorf("empty request accepted")
	}
	if _, _, err := c.Analyze(context.Background(), map[string]string{"x.c": "int main(void { return 0; }"}, "x.c", false); err == nil {
		t.Errorf("syntax error accepted")
	}
	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Requests.Errors != 2 {
		t.Fatalf("error counter = %d, want 2", m.Requests.Errors)
	}
}

// TestBenchmarksServeWarm drives a subset of the real suite through the
// daemon: every benchmark must analyze cold, then serve warm with
// byte-identical snapshots (the CI smoke job repeats this for all 13
// against a real wlpad process).
func TestBenchmarksServeWarm(t *testing.T) {
	suite := workload.Suite()
	if len(suite) == 0 {
		t.Skip("no benchmark sources")
	}
	if len(suite) > 3 {
		suite = suite[:3]
	}
	_, ts := newTestServer(t, t.TempDir())
	c := &Client{Base: ts.URL}
	for _, b := range suite {
		files := map[string]string{b.Name + ".c": b.Source}
		cold, _, err := c.Analyze(context.Background(), files, b.Name+".c", false)
		if err != nil {
			t.Fatalf("%s cold: %v", b.Name, err)
		}
		warm, _, err := c.Analyze(context.Background(), files, b.Name+".c", false)
		if err != nil {
			t.Fatalf("%s warm: %v", b.Name, err)
		}
		if cold.Meta.Cache != "miss" || warm.Meta.Cache != "hit" {
			t.Errorf("%s: cold=%s warm=%s", b.Name, cold.Meta.Cache, warm.Meta.Cache)
		}
		if !bytes.Equal(cold.Snapshot, warm.Snapshot) {
			t.Errorf("%s: warm snapshot differs from cold", b.Name)
		}
	}
}

// TestCheckerTimeoutIs422 pins the budget on the checker: a request with
// diagnostics whose checking runs past Options.Timeout fails with 422
// and the named timeout error (not 500), and the daemon keeps serving.
func TestCheckerTimeoutIs422(t *testing.T) {
	st, err := store.Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Store:   st,
		Options: pta.Options{Timeout: 200 * time.Millisecond},
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	cfg := workload.FuzzGenConfig(20, uint32(workload.AllFeatures()))
	cfg.NumFuncs, cfg.StmtsPerFunc = 6, 10
	body, _ := json.Marshal(AnalyzeRequest{Files: map[string]string{"cgen.c": workload.Generate(cfg)}, Entry: "cgen.c", Diagnostics: true})
	resp, err := http.Post(ts.URL+"/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var er ErrorResponse
	err = json.NewDecoder(resp.Body).Decode(&er)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(er.Error, "wall-clock budget exceeded") {
		t.Fatalf("over-budget check answered %d %q, want 422 naming the budget", resp.StatusCode, er.Error)
	}

	c := &Client{Base: ts.URL}
	wb, _ := workload.ByName("allroots")
	if _, snap, err := c.Analyze(context.Background(), map[string]string{"allroots.c": wb.Source}, "allroots.c", true); err != nil || snap == nil {
		t.Fatalf("daemon did not serve after a timeout: %v", err)
	}
}
