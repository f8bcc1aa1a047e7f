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
// checker after the analysis, under the daemon's fingerprint key.
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

// engineRuns counts the engine runs of one test: the cold analyses and
// the checker runs the daemon starts, and how many were live at once.
// It also records, by identity, the flow-graph maps irhash hashed and
// the ones each run was given.
type engineRuns struct {
	live, peak, checks atomic.Int32

	mu                        sync.Mutex
	hashed, analyzed, checked []uintptr
}

// procsID identifies a flow-graph map; 0 is the nil map.
func procsID(procs map[*cast.FuncDecl]*cfg.Proc) uintptr {
	return reflect.ValueOf(procs).Pointer()
}

// flowGraphs returns the maps recorded since the last call.
func (e *engineRuns) flowGraphs() (hashed, analyzed, checked []uintptr) {
	e.mu.Lock()
	defer e.mu.Unlock()
	hashed, analyzed, checked = e.hashed, e.analyzed, e.checked
	e.hashed, e.analyzed, e.checked = nil, nil, nil
	return hashed, analyzed, checked
}

func (e *engineRuns) record(list *[]uintptr, procs map[*cast.FuncDecl]*cfg.Proc) {
	e.mu.Lock()
	*list = append(*list, procsID(procs))
	e.mu.Unlock()
}

// observeEngine wraps the daemon's hash and engine entry points for the
// rest of the test.
func observeEngine(t *testing.T) *engineRuns {
	e := &engineRuns{}
	hash, analyze, check := hashProcs, analyzeProgram, checkProgram
	t.Cleanup(func() { hashProcs, analyzeProgram, checkProgram = hash, analyze, check })
	enter := func() {
		n := e.live.Add(1)
		for p := e.peak.Load(); n > p && !e.peak.CompareAndSwap(p, n); p = e.peak.Load() {
		}
	}
	hashProcs = func(prog *sem.Program, procs map[*cast.FuncDecl]*cfg.Proc) *irhash.Program {
		e.record(&e.hashed, procs)
		return hash(prog, procs)
	}
	analyzeProgram = func(prog *sem.Program, procs map[*cast.FuncDecl]*cfg.Proc, opts *pta.Options) (*pta.Result, error) {
		e.record(&e.analyzed, procs)
		enter()
		defer e.live.Add(-1)
		return analyze(prog, procs, opts)
	}
	checkProgram = func(prog *sem.Program, procs map[*cast.FuncDecl]*cfg.Proc, opts *pta.Options, copts *pta.CheckOptions) ([]pta.Diagnostic, error) {
		e.record(&e.checked, procs)
		e.checks.Add(1)
		enter()
		defer e.live.Add(-1)
		return check(prog, procs, opts, copts)
	}
	return e
}

// TestRequestSharesItsFlowGraphs pins one flow-graph build per request:
// each engine run a miss starts is given the map irhash hashed for the
// request, whether the checker runs beside the main analysis or after
// it, on a plain miss and on a cold POST /query.
func TestRequestSharesItsFlowGraphs(t *testing.T) {
	wb, _ := workload.ByName("allroots")
	files := map[string]string{"allroots.c": wb.Source}
	cases := []struct {
		name       string
		target     string
		body       any
		holdSlot   bool // the checker finds no spare slot and runs after
		checks     int
		sequential uint64
	}{
		{"diagnostics miss, checker beside", "/analyze",
			AnalyzeRequest{Files: files, Entry: "allroots.c", Diagnostics: true}, false, 1, 0},
		{"diagnostics miss, checker after", "/analyze",
			AnalyzeRequest{Files: files, Entry: "allroots.c", Diagnostics: true}, true, 1, 1},
		{"plain miss", "/analyze",
			AnalyzeRequest{Files: files, Entry: "allroots.c"}, false, 0, 0},
		{"cold POST /query", "/query",
			QueryRequest{Files: files, Entry: "allroots.c", Queries: []SiteQuery{{Proc: "main", Line: 1, Expr: "p"}}}, false, 0, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			runs := observeEngine(t)
			srv := newHandlerServer(t, pta.Options{}, 2)
			if c.holdSlot {
				srv.sem <- struct{}{}
				defer func() { <-srv.sem }()
			}
			if code, body := post(context.Background(), srv.Handler(), c.target, c.body); code != http.StatusOK {
				t.Fatalf("status %d: %.200s", code, body)
			}
			hashed, analyzed, checked := runs.flowGraphs()
			if len(hashed) != 1 || hashed[0] == 0 {
				t.Fatalf("irhash hashed %v, want one non-nil flow-graph map", hashed)
			}
			if len(analyzed) != 1 || analyzed[0] != hashed[0] {
				t.Errorf("main analysis given %v, want the hashed map %v", analyzed, hashed[0])
			}
			if len(checked) != c.checks || (c.checks > 0 && checked[0] != hashed[0]) {
				t.Errorf("checker given %v, want the hashed map %v %d times", checked, hashed[0], c.checks)
			}
			if seq := srv.metrics.snapshot().Check.Sequential; seq != c.sequential {
				t.Errorf("%d sequential checks, want %d", seq, c.sequential)
			}
		})
	}
}

// TestDiagnosticsMissBytes pins the served bytes of diagnostics misses
// to the library's: on the suite and the fixtures, once with the
// checker beside the main analysis and once after it (the test holds
// the spare slot), plus a warm-edit graft with diagnostics each way.
func TestDiagnosticsMissBytes(t *testing.T) {
	progs := map[string]string{}
	for _, b := range workload.Suite() {
		progs[b.Name+".c"] = b.Source
	}
	for name, src := range workload.BugFixtures() {
		progs["bug_"+name+".c"] = src
	}
	refs := map[string][]byte{}
	for _, sequential := range []bool{false, true} {
		srv := newHandlerServer(t, pta.Options{}, 2)
		if sequential {
			srv.sem <- struct{}{}
		}
		h := srv.Handler()
		for name, src := range progs {
			resp := analyzeOK(t, h, name, src)
			if refs[name] == nil {
				refs[name] = librarySnapshot(t, name, src, resp.Meta.Key)
			}
			if !bytes.Equal(resp.Snapshot, refs[name]) {
				t.Errorf("%s (sequential %v): served snapshot differs from the library's", name, sequential)
			}
			if resp.Meta.CheckMS <= 0 {
				t.Errorf("%s (sequential %v): check_ms = %v", name, sequential, resp.Meta.CheckMS)
			}
		}

		analyzeOK(t, h, "edit.c", editBase)
		edited := analyzeOK(t, h, "edit.c", editChanged)
		if inc := edited.Meta.Incremental; inc == nil || inc.Fallback != "" {
			t.Fatalf("sequential %v: edited miss did not graft: %+v", sequential, edited.Meta)
		}
		if !bytes.Equal(edited.Snapshot, librarySnapshot(t, "edit.c", editChanged, edited.Meta.Key)) {
			t.Errorf("sequential %v: grafted snapshot differs from the library's", sequential)
		}

		misses := uint64(len(progs) + 2)
		m := srv.metrics.snapshot()
		wantSeq := uint64(0)
		if sequential {
			wantSeq = misses
			<-srv.sem
		}
		if m.Check.Sequential != wantSeq || m.LatencyMS["check"].Count != misses {
			t.Errorf("sequential %v: %d sequential checks and %d timed, want %d and %d",
				sequential, m.Check.Sequential, m.LatencyMS["check"].Count, wantSeq, misses)
		}
	}
}

// TestConcurrentDiagnosticsMisses sends diagnostics misses at once to a
// daemon with two slots: every one is served the library's bytes, and
// no more than two engine runs are ever live.
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
	if n := runs.checks.Load(); n != int32(len(suite)) {
		t.Errorf("%d checker runs for %d diagnostics misses", n, len(suite))
	}
	if n := len(srv.sem); n != 0 {
		t.Errorf("%d slots still held after every reply", n)
	}
	// The main analysis and the checker of each miss read the flow
	// graphs the request hashed, beside each other or one after the
	// other: under -race this checks that sharing them is safe.
	hashed, analyzed, checked := runs.flowGraphs()
	uses := map[uintptr]int{}
	for _, id := range hashed {
		uses[id] = 0
	}
	for _, id := range append(analyzed, checked...) {
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
		if n != 2 {
			t.Errorf("a request's flow graphs went to %d engine runs, want 2", n)
		}
	}
}

// TestDiagnosticsMissErrors pins the failing diagnostics misses: a
// program without main fails both runs, and the generated program
// whose checking runs past a 200 ms budget fails the checker only.
// Either way the reply is 422 with the named error, beside the main
// analysis or after it, and the checker run is over before the handler
// returns.
func TestDiagnosticsMissErrors(t *testing.T) {
	cfg := workload.FuzzGenConfig(20, uint32(workload.AllFeatures()))
	cfg.NumFuncs, cfg.StmtsPerFunc = 6, 10
	cases := []struct{ name, src, want string }{
		{"nomain.c", "int x;\nint f(void) { return x; }\n", "no main function"},
		{"cgen.c", workload.Generate(cfg), "wall-clock budget exceeded"},
	}
	for _, sequential := range []bool{false, true} {
		for _, c := range cases {
			t.Run(c.name, func(t *testing.T) {
				runs := observeEngine(t)
				srv := newHandlerServer(t, pta.Options{Timeout: 200 * time.Millisecond}, 2)
				if sequential {
					srv.sem <- struct{}{}
					defer func() { <-srv.sem }()
				}
				code, body := post(context.Background(), srv.Handler(), "/analyze",
					AnalyzeRequest{Files: map[string]string{c.name: c.src}, Entry: c.name, Diagnostics: true})
				if live := runs.live.Load(); live != 0 {
					t.Errorf("sequential %v: %d engine runs still live after the handler returned", sequential, live)
				}
				if code != http.StatusUnprocessableEntity || !strings.Contains(string(body), c.want) {
					t.Errorf("sequential %v: %d %.200s, want 422 naming %q", sequential, code, body, c.want)
				}
				if !sequential && runs.checks.Load() != 1 {
					t.Errorf("%d checker runs, want 1 beside the main analysis", runs.checks.Load())
				}
				held := 0
				if sequential {
					held = 1 // the test's own
				}
				if n := len(srv.sem); n != held {
					t.Errorf("sequential %v: %d slots held after the reply, want %d", sequential, n, held)
				}
			})
		}
	}
}

// TestSlotFreedWhileCheckerRuns holds a diagnostics miss's checker
// past its main analysis with two slots in all: a plain miss sent
// meanwhile must get a slot, because the waiting request hands its own
// back and takes over the checker's.
func TestSlotFreedWhileCheckerRuns(t *testing.T) {
	check := checkProgram
	t.Cleanup(func() { checkProgram = check })
	started, release := make(chan struct{}), make(chan struct{})
	checkProgram = func(prog *sem.Program, procs map[*cast.FuncDecl]*cfg.Proc, opts *pta.Options, copts *pta.CheckOptions) ([]pta.Diagnostic, error) {
		close(started)
		<-release
		return check(prog, procs, opts, copts)
	}
	srv := newHandlerServer(t, pta.Options{}, 2)
	h := srv.Handler()
	wb, _ := workload.ByName("allroots")
	var slow AnalyzeResponse
	done := make(chan struct{})
	go func() {
		defer close(done)
		code, body := post(context.Background(), h, "/analyze",
			AnalyzeRequest{Files: map[string]string{"allroots.c": wb.Source}, Entry: "allroots.c", Diagnostics: true})
		if code != http.StatusOK || json.Unmarshal(body, &slow) != nil {
			t.Errorf("diagnostics miss: %d %.200s", code, body)
		}
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	code, body := post(ctx, h, "/analyze", AnalyzeRequest{Files: map[string]string{"edit.c": editBase}, Entry: "edit.c"})
	cancel()
	close(release)
	<-done
	if code != http.StatusOK {
		t.Errorf("plain miss got %d while a checker ran: %.200s", code, body)
	}
	if !bytes.Equal(slow.Snapshot, librarySnapshot(t, "allroots.c", wb.Source, slow.Meta.Key)) {
		t.Errorf("diagnostics miss served a snapshot that differs from the library's")
	}
	if n := len(srv.sem); n != 0 {
		t.Errorf("%d slots still held after both replies", n)
	}
}

// TestCheckerPanicReraised makes the checker panic beside the main
// analysis: the request's goroutine re-raises it with the checker's own
// stack, both slots are free afterwards, and the next miss is served.
func TestCheckerPanicReraised(t *testing.T) {
	check := checkProgram
	t.Cleanup(func() { checkProgram = check })
	checkProgram = func(*sem.Program, map[*cast.FuncDecl]*cfg.Proc, *pta.Options, *pta.CheckOptions) ([]pta.Diagnostic, error) {
		panic("boom")
	}
	srv := newHandlerServer(t, pta.Options{}, 2)
	h := srv.Handler()
	var got any
	func() {
		defer func() { got = recover() }()
		post(context.Background(), h, "/analyze",
			AnalyzeRequest{Files: map[string]string{"edit.c": editBase}, Entry: "edit.c", Diagnostics: true})
	}()
	err, _ := got.(error)
	if err == nil || !strings.Contains(err.Error(), "checker panic: boom") ||
		!strings.Contains(err.Error(), "TestCheckerPanicReraised") {
		t.Fatalf("recovered %v, want an error carrying the checker's panic and stack", got)
	}
	if n := len(srv.sem); n != 0 {
		t.Errorf("%d slots still held after the panic", n)
	}
	checkProgram = check
	analyzeOK(t, h, "edit.c", editChanged)
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
