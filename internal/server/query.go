package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"wlpa/pta"
)

// maxQueryResults bounds how many warm query results the daemon keeps
// alive. Unlike warm-edit baselines these are never consumed — a point
// query reads the converged analysis without invalidating it — but each
// one pins a full analysis web, so the registry stays small. Kept
// strictly disjoint from baselineRegistry: a warm-edit graft mutates
// its baseline's analysis in place, which would corrupt any query view
// sharing it.
const maxQueryResults = 4

// queryEntry is one warm program held for point queries. The mutex
// serializes queries against the shared result: a query may intern new
// location sets, so concurrent readers would race on the underlying
// analysis.
type queryEntry struct {
	mu   sync.Mutex
	root string // irhash root the result was converged for
	res  *pta.Result
}

// queryRegistry is a non-consuming LRU of warm query results, keyed by
// entry name.
type queryRegistry struct {
	mu        sync.Mutex
	entries   map[string]*queryEntry
	order     []string // LRU order, oldest first
	evictions uint64
}

func newQueryRegistry() *queryRegistry {
	return &queryRegistry{entries: map[string]*queryEntry{}}
}

// get returns the warm entry registered under entry (nil when none is),
// refreshing its LRU position. The caller must check root before using
// it and must hold the entry's mutex while querying.
func (qr *queryRegistry) get(entry string) *queryEntry {
	qr.mu.Lock()
	defer qr.mu.Unlock()
	e := qr.entries[entry]
	if e != nil {
		qr.remove(entry)
		qr.order = append(qr.order, entry)
	}
	return e
}

// put registers (or replaces) the warm entry, evicting the least
// recently used beyond capacity.
func (qr *queryRegistry) put(entry string, e *queryEntry) {
	qr.mu.Lock()
	defer qr.mu.Unlock()
	if _, ok := qr.entries[entry]; ok {
		qr.remove(entry)
	}
	qr.entries[entry] = e
	qr.order = append(qr.order, entry)
	for len(qr.order) > maxQueryResults {
		oldest := qr.order[0]
		qr.order = qr.order[1:]
		delete(qr.entries, oldest)
		qr.evictions++
	}
}

func (qr *queryRegistry) stats() (occupancy int, evictions uint64) {
	qr.mu.Lock()
	defer qr.mu.Unlock()
	return len(qr.entries), qr.evictions
}

func (qr *queryRegistry) remove(entry string) {
	for i, e := range qr.order {
		if e == entry {
			qr.order = append(qr.order[:i], qr.order[i+1:]...)
			return
		}
	}
}

// handleQueryGet answers a single site query strictly from warm state:
// the entry must have been analyzed by a prior POST /query (or the
// response is 404 and the client should POST the sources). This is the
// microsecond path — no frontend, no hashing, no engine.
func (s *Server) handleQueryGet(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	s.metrics.mu.Lock()
	s.metrics.queryRequests++
	s.metrics.mu.Unlock()

	q := r.URL.Query()
	entry := q.Get("entry")
	proc := q.Get("proc")
	expr := q.Get("expr")
	line, err := strconv.Atoi(q.Get("line"))
	if entry == "" || proc == "" || expr == "" || err != nil {
		s.fail(w, r, t0, http.StatusBadRequest,
			fmt.Errorf("query needs entry, proc, line (integer) and expr parameters"))
		return
	}

	e := s.queries.get(entry)
	if e == nil {
		s.fail(w, r, t0, http.StatusNotFound,
			fmt.Errorf("no warm result for entry %q: POST /query with the sources first", entry))
		return
	}

	e.mu.Lock()
	pts := e.res.PointsToAt(proc, line, expr)
	e.mu.Unlock()

	meta := QueryMeta{Cache: "warm", Key: e.root, TotalMS: ms(time.Since(t0))}
	meta.Demand.Queries = 1
	s.metrics.mu.Lock()
	s.metrics.queryWarm++
	s.metrics.mu.Unlock()
	s.metrics.observe("query", meta.TotalMS)
	s.logRequest(r, http.StatusOK, t0, "warm", entry, 0)
	writeJSON(w, http.StatusOK, QueryResponse{
		Meta:    meta,
		Answers: []QueryAnswer{{Proc: proc, Line: line, Expr: expr, PointsTo: pts}},
	})
}

// handleQueryPost answers a batch of site queries, converging the
// program first if no warm result matches the sources. A cold run pays
// one engine pass and leaves the result warm for subsequent GETs; a
// warm run answers from the held result without touching the engine or
// materializing a snapshot. Either way the answers are bit-identical to
// what /analyze's snapshot would report for the same sites.
func (s *Server) handleQueryPost(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	s.metrics.mu.Lock()
	s.metrics.queryRequests++
	s.metrics.mu.Unlock()

	var req QueryRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err := dec.Decode(&req); err != nil {
		s.fail(w, r, t0, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if len(req.Files) == 0 || req.Entry == "" || req.Files[req.Entry] == "" {
		s.fail(w, r, t0, http.StatusBadRequest,
			fmt.Errorf("request must carry files and an entry naming one of them"))
		return
	}
	if len(req.Queries) == 0 {
		s.fail(w, r, t0, http.StatusBadRequest, fmt.Errorf("request carries no queries"))
		return
	}

	p, err := s.prepare(req.Files, req.Entry)
	if err != nil {
		s.fail(w, r, t0, http.StatusUnprocessableEntity, err)
		return
	}
	hashDur := time.Since(t0)
	s.metrics.observe("hash", ms(hashDur))
	meta := QueryMeta{Key: p.ir.Root, HashMS: ms(hashDur)}

	e := s.queries.get(req.Entry)
	if e == nil || e.root != p.ir.Root {
		var status int
		if e, status, err = s.queryMiss(r.Context(), req.Entry, p, &meta); err != nil {
			s.fail(w, r, t0, status, err)
			return
		}
		meta.Cache = "cold"
		s.metrics.mu.Lock()
		s.metrics.queryCold++
		s.metrics.mu.Unlock()
	} else {
		meta.Cache = "warm"
		s.metrics.mu.Lock()
		s.metrics.queryWarm++
		s.metrics.mu.Unlock()
	}

	e.mu.Lock()
	answers := make([]QueryAnswer, len(req.Queries))
	for i, sq := range req.Queries {
		answers[i] = QueryAnswer{
			Proc: sq.Proc, Line: sq.Line, Expr: sq.Expr,
			PointsTo: e.res.PointsToAt(sq.Proc, sq.Line, sq.Expr),
		}
	}
	e.mu.Unlock()
	meta.Demand.Queries = len(answers)

	meta.TotalMS = ms(time.Since(t0))
	s.metrics.observe("query", meta.TotalMS)
	s.logRequest(r, http.StatusOK, t0, meta.Cache, req.Entry, 0)
	writeJSON(w, http.StatusOK, QueryResponse{Meta: meta, Answers: answers})
}

// queryMiss converges p cold under the in-flight bound and registers
// the result warm under entry. The result is deliberately NOT handed to
// the warm-edit baseline registry — grafting would mutate it under our
// feet. The slot is freed on return, before the caller answers the
// queries and writes the reply. On failure the returned status is the
// one to answer with.
func (s *Server) queryMiss(ctx context.Context, entry string, p *prepared, meta *QueryMeta) (*queryEntry, int, error) {
	if err := s.acquire(ctx); err != nil {
		return nil, http.StatusServiceUnavailable, err
	}
	defer s.release()
	ta := time.Now()
	opts := s.cfg.Options
	res, err := analyzeProgram(p.prog, p.procs, &opts)
	if err != nil {
		return nil, http.StatusUnprocessableEntity, err
	}
	meta.AnalyzeMS = ms(time.Since(ta))
	s.metrics.observe("analyze", meta.AnalyzeMS)
	e := &queryEntry{root: p.ir.Root, res: res}
	s.queries.put(entry, e)
	return e, http.StatusOK, nil
}
