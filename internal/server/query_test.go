package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"reflect"
	"testing"

	"wlpa/pta"
)

// queryRef computes the reference answers the daemon must reproduce:
// the whole-program Result's PointsToAt at each site.
func queryRef(t *testing.T, src string, sites []SiteQuery) [][]string {
	t.Helper()
	res, err := pta.AnalyzeSource("q.c", src, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]string, len(sites))
	for i, s := range sites {
		out[i] = res.PointsToAt(s.Proc, s.Line, s.Expr)
	}
	return out
}

// TestQueryEndpoint drives /query through its cold and warm paths and
// pins the answers against the whole-program result.
func TestQueryEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, t.TempDir())
	c := &Client{Base: ts.URL}
	ctx := context.Background()

	sites := []SiteQuery{
		{Proc: "main", Line: 9, Expr: "fp"},
		{Proc: "main", Line: 9, Expr: "gp"},
		{Proc: "main", Line: 9, Expr: "hp"},
		{Proc: "f", Line: 7, Expr: "fp"},
		{Proc: "main", Line: 9, Expr: "*fp"},
	}
	want := queryRef(t, editBase, sites)
	files := map[string]string{"q.c": editBase}

	cold, err := c.Query(ctx, files, "q.c", sites)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Meta.Cache != "cold" {
		t.Fatalf("first query: cache=%q, want cold", cold.Meta.Cache)
	}
	if cold.Meta.AnalyzeMS == 0 || cold.Meta.Demand.Queries != len(sites) {
		t.Fatalf("cold meta: %+v", cold.Meta)
	}
	for i, a := range cold.Answers {
		if !reflect.DeepEqual(nonEmpty(a.PointsTo), nonEmpty(want[i])) {
			t.Errorf("cold %s:%d %q: got %v, want %v", a.Proc, a.Line, a.Expr, a.PointsTo, want[i])
		}
	}
	// The first site is an assigned pointer — a trivially-empty oracle
	// would pass DeepEqual above.
	if len(cold.Answers[0].PointsTo) == 0 {
		t.Fatal("fp answered empty at main's return")
	}

	// A cold /query must not register a warm-edit baseline: grafting
	// would mutate the analysis the warm query registry still serves.
	if srv.baselines.take("q.c") != nil {
		t.Fatal("cold query leaked a result into the baseline registry")
	}

	warm, err := c.Query(ctx, files, "q.c", sites)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Meta.Cache != "warm" || warm.Meta.AnalyzeMS != 0 {
		t.Fatalf("repeat query: %+v", warm.Meta)
	}
	if !reflect.DeepEqual(warm.Answers, cold.Answers) {
		t.Fatalf("warm answers differ from cold:\n%v\n%v", warm.Answers, cold.Answers)
	}

	// An edit changes the IR root: the held result no longer applies and
	// the query runs cold again.
	edited, err := c.Query(ctx, map[string]string{"q.c": editChanged}, "q.c", sites[:1])
	if err != nil {
		t.Fatal(err)
	}
	if edited.Meta.Cache != "cold" || edited.Meta.Key == cold.Meta.Key {
		t.Fatalf("edited query served stale state: %+v", edited.Meta)
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Query.Requests != 3 || m.Query.Cold != 2 || m.Query.Warm != 1 {
		t.Fatalf("query counters: %+v", m.Query)
	}
	if m.Query.Occupancy != 1 {
		t.Fatalf("query registry occupancy = %d, want 1 (same entry replaced)", m.Query.Occupancy)
	}
	if m.Baselines.Capacity != defaultBaselineCap || m.Baselines.Occupancy != 0 {
		t.Fatalf("baseline metrics: %+v", m.Baselines)
	}
	if h := m.LatencyMS["query"]; h == nil || h.Count != 3 {
		t.Fatalf("query latency histogram: %+v", m.LatencyMS["query"])
	}
}

// TestQueryGet pins the GET path: warm-only, microsecond-class, 404
// without a prior POST, 400 on malformed parameters.
func TestQueryGet(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	c := &Client{Base: ts.URL}
	ctx := context.Background()

	get := func(params url.Values) (*QueryResponse, int) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/query?" + params.Encode())
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var qr QueryResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
				t.Fatal(err)
			}
		}
		return &qr, resp.StatusCode
	}

	params := url.Values{"entry": {"q.c"}, "proc": {"main"}, "line": {"9"}, "expr": {"fp"}}
	if _, code := get(params); code != http.StatusNotFound {
		t.Fatalf("GET before any POST: HTTP %d, want 404", code)
	}

	sites := []SiteQuery{{Proc: "main", Line: 9, Expr: "fp"}}
	post, err := c.Query(ctx, map[string]string{"q.c": editBase}, "q.c", sites)
	if err != nil {
		t.Fatal(err)
	}

	qr, code := get(params)
	if code != http.StatusOK {
		t.Fatalf("warm GET: HTTP %d", code)
	}
	if qr.Meta.Cache != "warm" || len(qr.Answers) != 1 {
		t.Fatalf("warm GET response: %+v", qr)
	}
	if !reflect.DeepEqual(qr.Answers[0], post.Answers[0]) {
		t.Fatalf("GET answer %v differs from POST answer %v", qr.Answers[0], post.Answers[0])
	}

	bad := url.Values{"entry": {"q.c"}, "proc": {"main"}, "line": {"nine"}, "expr": {"fp"}}
	if _, code := get(bad); code != http.StatusBadRequest {
		t.Fatalf("malformed line: HTTP %d, want 400", code)
	}
}

// TestQueryRegistryLRU pins the warm-result LRU: non-consuming get,
// replacement, eviction beyond capacity.
func TestQueryRegistryLRU(t *testing.T) {
	qr := newQueryRegistry()
	mk := func(root string) *queryEntry { return &queryEntry{root: root} }

	qr.put("a", mk("r1"))
	if e := qr.get("a"); e == nil || e.root != "r1" {
		t.Fatalf("get(a) = %+v", e)
	}
	if e := qr.get("a"); e == nil {
		t.Fatal("get consumed the entry")
	}
	qr.put("a", mk("r2"))
	if e := qr.get("a"); e.root != "r2" {
		t.Fatalf("replacement kept old root %q", e.root)
	}
	for i := 0; i < maxQueryResults-1; i++ {
		qr.put(fmt.Sprintf("e%d", i), mk("r"))
	}
	// At capacity: refresh "a", then one more put must evict the oldest
	// un-refreshed entry (e0), not "a".
	qr.get("a")
	qr.put("z", mk("r"))
	if qr.get("e0") != nil {
		t.Fatal("LRU entry survived beyond capacity")
	}
	if qr.get("a") == nil {
		t.Fatal("recently-used entry evicted")
	}
	if occ, ev := qr.stats(); occ != maxQueryResults || ev != 1 {
		t.Fatalf("stats: occ=%d ev=%d", occ, ev)
	}
}

// nonEmpty normalizes nil vs empty slices for comparison (JSON
// round-trips nil slices as null/absent).
func nonEmpty(s []string) []string {
	if len(s) == 0 {
		return nil
	}
	return s
}
