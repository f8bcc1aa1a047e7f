package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wlpa/internal/cast"
	"wlpa/internal/cfg"
	"wlpa/internal/irhash"
	"wlpa/internal/sem"
	"wlpa/internal/store"
	"wlpa/internal/workload"
	"wlpa/pta"
)

// newHandlerServer builds a memory-only daemon with the given options
// and in-flight bound, for driving Handler() in process.
func newHandlerServer(t *testing.T, opts pta.Options, maxInflight int) *Server {
	t.Helper()
	st, err := store.Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Store:       st,
		Options:     opts,
		MaxInflight: maxInflight,
		Logger:      slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// post sends one JSON request through h in process and returns the
// status and the body.
func post(ctx context.Context, h http.Handler, target string, body any) (int, []byte) {
	data, _ := json.Marshal(body)
	r := httptest.NewRequest(http.MethodPost, target, bytes.NewReader(data)).WithContext(ctx)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w.Code, w.Body.Bytes()
}

// analyzeOK sends a diagnostics /analyze request and fails the test
// unless the reply is a 200 miss.
func analyzeOK(t *testing.T, h http.Handler, name, src string) AnalyzeResponse {
	t.Helper()
	code, body := post(context.Background(), h, "/analyze",
		AnalyzeRequest{Files: map[string]string{name: src}, Entry: name, Diagnostics: true})
	var resp AnalyzeResponse
	if code != http.StatusOK || json.Unmarshal(body, &resp) != nil || resp.Meta.Cache != "miss" {
		t.Fatalf("%s: status %d, want a 200 miss: %.300s", name, code, body)
	}
	return resp
}

// librarySnapshot is what the library serves for the program with
// diagnostics: AnalyzeProgram, then Result.Snapshot, which runs the
// checker over that analysis, under the daemon's fingerprint key.
func librarySnapshot(t *testing.T, name, src, key string) []byte {
	t.Helper()
	prog, err := pta.Frontend(pta.Source{name: src}, name, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pta.AnalyzeProgram(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := res.Snapshot(&pta.SnapshotOptions{Fingerprint: key, Diagnostics: true})
	if err != nil {
		t.Fatal(err)
	}
	data, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// engineRuns counts the engine runs of one test: the cold analyses the
// daemon starts, how many were live at once, and the most goroutines
// seen running daemon code at the start of a run. It also records, by
// identity, the flow-graph maps irhash hashed and the ones each run was
// given.
type engineRuns struct {
	runs, live, peak, serving atomic.Int32

	mu               sync.Mutex
	hashed, analyzed []uintptr
}

// procsID identifies a flow-graph map; 0 is the nil map.
func procsID(procs map[*cast.FuncDecl]*cfg.Proc) uintptr {
	return reflect.ValueOf(procs).Pointer()
}

// flowGraphs returns the maps recorded since the last call.
func (e *engineRuns) flowGraphs() (hashed, analyzed []uintptr) {
	e.mu.Lock()
	defer e.mu.Unlock()
	hashed, analyzed = e.hashed, e.analyzed
	e.hashed, e.analyzed = nil, nil
	return hashed, analyzed
}

func (e *engineRuns) record(list *[]uintptr, procs map[*cast.FuncDecl]*cfg.Proc) {
	e.mu.Lock()
	*list = append(*list, procsID(procs))
	e.mu.Unlock()
}

// maxTo raises v to at least n.
func maxTo(v *atomic.Int32, n int32) {
	for p := v.Load(); n > p && !v.CompareAndSwap(p, n); p = v.Load() {
	}
}

// serverGoroutines counts the goroutines that run daemon code or were
// started by it: one per request being served, unless a handler starts
// goroutines of its own.
func serverGoroutines() int32 {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var n int32
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("wlpa/internal/server.(*Server)")) {
			n++
		}
	}
	return n
}

// observeEngine wraps the daemon's hash and engine entry points for the
// rest of the test.
func observeEngine(t *testing.T) *engineRuns {
	e := &engineRuns{}
	hash, analyze := hashProcs, analyzeProgram
	t.Cleanup(func() { hashProcs, analyzeProgram = hash, analyze })
	hashProcs = func(prog *sem.Program, procs map[*cast.FuncDecl]*cfg.Proc) *irhash.Program {
		e.record(&e.hashed, procs)
		return hash(prog, procs)
	}
	analyzeProgram = func(prog *sem.Program, procs map[*cast.FuncDecl]*cfg.Proc, opts *pta.Options) (*pta.Result, error) {
		e.record(&e.analyzed, procs)
		e.runs.Add(1)
		maxTo(&e.peak, e.live.Add(1))
		defer e.live.Add(-1)
		maxTo(&e.serving, serverGoroutines())
		return analyze(prog, procs, opts)
	}
	return e
}

// TestRequestSharesItsFlowGraphs pins one flow-graph build and one
// engine run per request: the run a miss starts is given the map irhash
// hashed for the request, on a diagnostics miss (whose checker reads
// that one analysis after it), a plain miss and a cold POST /query. The
// handler serves the request on its own goroutine and starts none:
// while the request runs, sampled at the start of the engine run and
// all along by the test, no other goroutine runs daemon code.
func TestRequestSharesItsFlowGraphs(t *testing.T) {
	wb, _ := workload.ByName("allroots")
	files := map[string]string{"allroots.c": wb.Source}
	cases := []struct {
		name   string
		target string
		body   any
	}{
		{"diagnostics miss, checker after", "/analyze",
			AnalyzeRequest{Files: files, Entry: "allroots.c", Diagnostics: true}},
		{"plain miss", "/analyze",
			AnalyzeRequest{Files: files, Entry: "allroots.c"}},
		{"cold POST /query", "/query",
			QueryRequest{Files: files, Entry: "allroots.c", Queries: []SiteQuery{{Proc: "main", Line: 1, Expr: "p"}}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			runs := observeEngine(t)
			srv := newHandlerServer(t, pta.Options{}, 2)
			var sampled atomic.Int32
			stop, stopped := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(stopped)
				for {
					select {
					case <-stop:
						return
					default:
						maxTo(&sampled, serverGoroutines())
					}
				}
			}()
			code, body := post(context.Background(), srv.Handler(), c.target, c.body)
			close(stop)
			<-stopped
			if code != http.StatusOK {
				t.Fatalf("status %d: %.200s", code, body)
			}
			hashed, analyzed := runs.flowGraphs()
			if len(hashed) != 1 || hashed[0] == 0 {
				t.Fatalf("irhash hashed %v, want one non-nil flow-graph map", hashed)
			}
			if len(analyzed) != 1 || analyzed[0] != hashed[0] {
				t.Errorf("engine runs given %v, want one given the hashed map %v", analyzed, hashed[0])
			}
			if n := runs.serving.Load(); n != 1 {
				t.Errorf("%d goroutines ran daemon code at the start of the engine run, want 1", n)
			}
			if n := sampled.Load(); n > 1 {
				t.Errorf("%d goroutines ran daemon code at once while serving one request, want 1", n)
			}
		})
	}
}

// TestDiagnosticsMissBytes pins the served bytes of diagnostics misses
// to the library's, on the suite and the fixtures plus a warm-edit
// graft, and times every checker run.
func TestDiagnosticsMissBytes(t *testing.T) {
	progs := map[string]string{}
	for _, b := range workload.Suite() {
		progs[b.Name+".c"] = b.Source
	}
	for name, src := range workload.BugFixtures() {
		progs["bug_"+name+".c"] = src
	}
	srv := newHandlerServer(t, pta.Options{}, 2)
	h := srv.Handler()
	for name, src := range progs {
		resp := analyzeOK(t, h, name, src)
		if !bytes.Equal(resp.Snapshot, librarySnapshot(t, name, src, resp.Meta.Key)) {
			t.Errorf("%s: served snapshot differs from the library's", name)
		}
		if resp.Meta.CheckMS <= 0 {
			t.Errorf("%s: check_ms = %v", name, resp.Meta.CheckMS)
		}
	}

	analyzeOK(t, h, "edit.c", editBase)
	edited := analyzeOK(t, h, "edit.c", editChanged)
	if inc := edited.Meta.Incremental; inc == nil || inc.Fallback != "" {
		t.Fatalf("edited miss did not graft: %+v", edited.Meta)
	}
	if !bytes.Equal(edited.Snapshot, librarySnapshot(t, "edit.c", editChanged, edited.Meta.Key)) {
		t.Errorf("grafted snapshot differs from the library's")
	}

	misses := uint64(len(progs) + 2)
	if n := srv.metrics.snapshot().LatencyMS["check"].Count; n != misses {
		t.Errorf("%d checker runs timed, want %d", n, misses)
	}
}

// TestConcurrentDiagnosticsMisses sends diagnostics misses at once to a
// daemon with two slots: every one is served the library's bytes, each
// starts exactly one engine run, given the flow graphs its request
// hashed, and no more than two are ever live.
func TestConcurrentDiagnosticsMisses(t *testing.T) {
	suite := workload.Suite()[:6]
	runs := observeEngine(t)
	srv := newHandlerServer(t, pta.Options{}, 2)
	h := srv.Handler()
	resps := make([]AnalyzeResponse, len(suite))
	codes := make([]int, len(suite))
	var wg sync.WaitGroup
	for i, b := range suite {
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := b.Name + ".c"
			var body []byte
			codes[i], body = post(context.Background(), h, "/analyze",
				AnalyzeRequest{Files: map[string]string{name: b.Source}, Entry: name, Diagnostics: true})
			if err := json.Unmarshal(body, &resps[i]); err != nil {
				t.Errorf("%s: %v: %.300s", name, err, body)
			}
		}()
	}
	wg.Wait()
	for i, b := range suite {
		name := b.Name + ".c"
		if codes[i] != http.StatusOK || resps[i].Meta.Cache != "miss" {
			t.Errorf("%s: status %d, cache %q", name, codes[i], resps[i].Meta.Cache)
			continue
		}
		if !bytes.Equal(resps[i].Snapshot, librarySnapshot(t, name, b.Source, resps[i].Meta.Key)) {
			t.Errorf("%s: served snapshot differs from the library's", name)
		}
	}
	if p := runs.peak.Load(); p > 2 {
		t.Errorf("%d engine runs were live at once with MaxInflight 2", p)
	}
	if n := runs.runs.Load(); n != int32(len(suite)) {
		t.Errorf("%d engine runs for %d diagnostics misses", n, len(suite))
	}
	if n := len(srv.sem); n != 0 {
		t.Errorf("%d slots still held after every reply", n)
	}
	// Each miss's one run reads the flow graphs its request hashed;
	// under -race this checks that concurrent requests share nothing
	// else.
	hashed, analyzed := runs.flowGraphs()
	uses := map[uintptr]int{}
	for _, id := range hashed {
		uses[id] = 0
	}
	for _, id := range analyzed {
		if _, ok := uses[id]; !ok || id == 0 {
			t.Errorf("an engine run was given flow graphs no request hashed")
			continue
		}
		uses[id]++
	}
	if len(uses) != len(suite) {
		t.Errorf("%d distinct flow-graph maps hashed for %d requests", len(uses), len(suite))
	}
	for _, n := range uses {
		if n != 1 {
			t.Errorf("a request's flow graphs went to %d engine runs, want 1", n)
		}
	}
}

// TestDiagnosticsMissErrors pins the failing diagnostics misses: a
// program without main fails its analysis, and the generated program
// whose checking runs past a 200 ms budget fails the checker, which
// runs on what the analysis left of that budget. Either way the reply
// is 422 with the named error, with one slot in all or two, and the
// slot is free when the handler returns.
func TestDiagnosticsMissErrors(t *testing.T) {
	cfg := workload.FuzzGenConfig(20, uint32(workload.AllFeatures()))
	cfg.NumFuncs, cfg.StmtsPerFunc = 6, 10
	cases := []struct{ name, src, want string }{
		{"nomain.c", "int x;\nint f(void) { return x; }\n", "no main function"},
		{"cgen.c", workload.Generate(cfg), "wall-clock budget exceeded"},
	}
	for _, slots := range []int{1, 2} {
		for _, c := range cases {
			t.Run(c.name, func(t *testing.T) {
				runs := observeEngine(t)
				srv := newHandlerServer(t, pta.Options{Timeout: 200 * time.Millisecond}, slots)
				code, body := post(context.Background(), srv.Handler(), "/analyze",
					AnalyzeRequest{Files: map[string]string{c.name: c.src}, Entry: c.name, Diagnostics: true})
				if code != http.StatusUnprocessableEntity || !strings.Contains(string(body), c.want) {
					t.Errorf("%d slots: %d %.200s, want 422 naming %q", slots, code, body, c.want)
				}
				if n := runs.runs.Load(); n != 1 {
					t.Errorf("%d slots: %d engine runs, want 1", slots, n)
				}
				if n := len(srv.sem); n != 0 {
					t.Errorf("%d slots: %d held after the reply", slots, n)
				}
			})
		}
	}
}

// blockingWriter is a ResponseWriter whose Write blocks until release is
// closed, like a client that stops reading its reply; writing signals
// that the handler got as far as the reply.
type blockingWriter struct {
	*httptest.ResponseRecorder
	writing chan struct{}
	release chan struct{}
	once    sync.Once
}

func (w *blockingWriter) Write(b []byte) (int, error) {
	w.once.Do(func() { close(w.writing) })
	<-w.release
	return w.ResponseRecorder.Write(b)
}

// TestSlotFreedBeforeReply holds a miss's reply unread with one slot in
// all: the next miss must still get the slot, on /analyze and on POST
// /query.
func TestSlotFreedBeforeReply(t *testing.T) {
	wb, _ := workload.ByName("allroots")
	req := func(target, entry, src string) any {
		files := map[string]string{entry: src}
		if target == "/query" {
			return QueryRequest{Files: files, Entry: entry, Queries: []SiteQuery{{Proc: "main", Line: 1, Expr: "p"}}}
		}
		return AnalyzeRequest{Files: files, Entry: entry}
	}
	for _, target := range []string{"/analyze", "/query"} {
		h := newHandlerServer(t, pta.Options{}, 1).Handler()
		data, _ := json.Marshal(req(target, "edit.c", editBase))
		w := &blockingWriter{ResponseRecorder: httptest.NewRecorder(), writing: make(chan struct{}), release: make(chan struct{})}
		done := make(chan struct{})
		go func() {
			defer close(done)
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, target, bytes.NewReader(data)))
		}()
		<-w.writing

		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		code, body := post(ctx, h, target, req(target, "allroots.c", wb.Source))
		cancel()
		close(w.release)
		<-done
		if code != http.StatusOK {
			t.Errorf("%s: second miss got %d while the first reply was unread: %.200s", target, code, body)
		}
		if w.Code != http.StatusOK {
			t.Errorf("%s: first miss got %d", target, w.Code)
		}
	}
}
