package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"wlpa/internal/analysis"
	"wlpa/internal/cfg"
	"wlpa/internal/irhash"
	"wlpa/internal/store"
	"wlpa/pta"
)

// maxRequestBytes bounds the /analyze request body (source text).
const maxRequestBytes = 32 << 20

// Config configures a Server.
type Config struct {
	// Store is the content-addressed cache (required).
	Store *store.Store
	// Options are the analysis options applied to every request.
	// Timeout does not affect results and is excluded from the cache
	// key.
	Options pta.Options
	// MaxInflight bounds concurrent engine runs (cache hits are not
	// throttled); 0 means 2. Each run is one sequential analysis that
	// shares no memory with the others, so this is also the number of
	// cores the engine can keep busy. A request that cannot get a slot
	// before its context is done gets 503.
	MaxInflight int
	// BaselineCap bounds how many warm-edit baselines are held for
	// incremental grafting; 0 means 8. Each baseline pins a full
	// converged analysis, so this is the daemon's main memory knob.
	BaselineCap int
	// Logger receives structured request logs (nil = slog.Default()).
	Logger *slog.Logger
}

// Server answers analysis requests out of the cache, running the engine
// only on misses. See the package comment for the key structure.
type Server struct {
	cfg       Config
	store     *store.Store
	optsFP    string
	log       *slog.Logger
	sem       chan struct{}
	metrics   *metrics
	baselines *baselineRegistry
	queries   *queryRegistry
	started   time.Time
}

// New builds a Server; Handler exposes it as an http.Handler.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("server: Config.Store is required")
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 2
	}
	log := cfg.Logger
	if log == nil {
		log = slog.Default()
	}
	return &Server{
		cfg:       cfg,
		store:     cfg.Store,
		optsFP:    optionsFingerprint(cfg.Options),
		log:       log,
		sem:       make(chan struct{}, cfg.MaxInflight),
		metrics:   newMetrics(),
		baselines: newBaselineRegistry(cfg.BaselineCap),
		queries:   newQueryRegistry(),
		started:   time.Now(),
	}, nil
}

// optionsFingerprint renders the result-affecting analysis options.
// Timeout is deliberately excluded: it changes wall-clock behaviour,
// never the answer.
func optionsFingerprint(o pta.Options) string {
	return fmt.Sprintf("policy=%d maxptfs=%d combine=%v forcefull=%v",
		o.Policy, o.MaxPTFs, o.CombineOffsets, o.ForceFullPasses)
}

// Handler returns the daemon's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /analyze", s.handleAnalyze)
	mux.HandleFunc("GET /query", s.handleQueryGet)
	mux.HandleFunc("POST /query", s.handleQueryPost)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.metrics.snapshot()
	snap.UptimeSeconds = time.Since(s.started).Seconds()
	snap.Store = s.store.Stats()
	snap.Baselines.Capacity, snap.Baselines.Occupancy, snap.Baselines.Evictions = s.baselines.stats()
	snap.Query.Occupancy, snap.Query.Evictions = s.queries.stats()
	writeJSON(w, http.StatusOK, snap)
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	s.metrics.mu.Lock()
	s.metrics.analyzeRequests++
	s.metrics.inflight++
	s.metrics.mu.Unlock()
	defer func() {
		s.metrics.mu.Lock()
		s.metrics.inflight--
		s.metrics.mu.Unlock()
	}()

	var req AnalyzeRequest
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

	// Frontend + content hash: cheap relative to the engine, and the
	// only work a warm request pays. The flow graphs are built once and
	// shared between hashing and the incremental graft below.
	prog, err := pta.Frontend(pta.Source(req.Files), req.Entry, s.cfg.Options.Predefined)
	if err != nil {
		s.fail(w, r, t0, http.StatusUnprocessableEntity, err)
		return
	}
	procs, err := cfg.BuildAll(prog.Funcs)
	if err != nil {
		s.fail(w, r, t0, http.StatusUnprocessableEntity, err)
		return
	}
	ir := irhash.HashProcs(prog, procs)
	hashDur := time.Since(t0)
	s.metrics.observe("hash", ms(hashDur))

	key := store.KeyOf("program", pta.SnapshotFormat, s.optsFP,
		fmt.Sprintf("diags=%v", req.Diagnostics), ir.Root)
	meta := AnalyzeMeta{Key: key.String(), HashMS: ms(hashDur)}

	if data, ok := s.store.Get(key); ok {
		meta.Cache = "hit"
		meta.TotalMS = ms(time.Since(t0))
		s.metrics.mu.Lock()
		s.metrics.analyzeHits++
		s.metrics.mu.Unlock()
		s.metrics.observe("total", meta.TotalMS)
		s.logRequest(r, http.StatusOK, t0, "hit", req.Entry, len(data))
		writeJSON(w, http.StatusOK, AnalyzeResponse{Meta: meta, Snapshot: data})
		return
	}

	// Miss: run the engine under the in-flight bound.
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-r.Context().Done():
		s.fail(w, r, t0, http.StatusServiceUnavailable,
			fmt.Errorf("no analysis slot available: %w", r.Context().Err()))
		return
	}

	// A registered baseline for this entry turns the miss into a
	// warm-edit graft: surviving PTFs are restored and only the edit's
	// dirty cone reconverges. The result is bit-identical to the cold
	// path (pinned by difftest.CheckIncremental), so the snapshot bytes
	// and cache entry are the same either way.
	ta := time.Now()
	opts := s.cfg.Options
	var res *pta.Result
	if bl := s.baselines.take(req.Entry); bl != nil {
		res, err = pta.AnalyzeIncrementalPrepared(bl, prog, procs, ir, &opts)
	} else {
		res, err = pta.AnalyzeProgram(prog, &opts)
	}
	if err != nil {
		s.fail(w, r, t0, http.StatusUnprocessableEntity, err)
		return
	}
	analyzeDur := time.Since(ta)
	s.metrics.observe("analyze", ms(analyzeDur))
	if inc := res.Incremental(); inc != nil {
		meta.Incremental = inc
		s.metrics.mu.Lock()
		if inc.Fallback == "" {
			s.metrics.warmGrafts++
		} else {
			s.metrics.warmFallbacks++
		}
		s.metrics.mu.Unlock()
	}

	ts := time.Now()
	snap, err := res.Snapshot(&pta.SnapshotOptions{
		Fingerprint: key.String(),
		Diagnostics: req.Diagnostics,
	})
	if err != nil {
		// The checker shares the analysis' budget: running past it is
		// the same named failure as an analysis timeout.
		status := http.StatusInternalServerError
		if errors.Is(err, analysis.ErrTimeout) {
			status = http.StatusUnprocessableEntity
		}
		s.fail(w, r, t0, status, err)
		return
	}
	data, err := snap.Encode()
	if err != nil {
		s.fail(w, r, t0, http.StatusInternalServerError, err)
		return
	}
	snapDur := time.Since(ts)
	s.metrics.observe("snapshot", ms(snapDur))

	if err := s.store.Put(key, data); err != nil {
		// A failed write-back degrades future requests to misses; this
		// one is still correct.
		s.log.Warn("cache write failed", "key", key.String(), "err", err)
	}
	// Every successful miss leaves a baseline behind for the entry's
	// next edit. The snapshot above is already built, so consuming this
	// result later cannot invalidate anything a client was served.
	s.baselines.put(req.Entry, pta.BaselineFromHash(res, ir, &opts))

	meta.Cache = "miss"
	meta.AnalyzeMS = ms(analyzeDur)
	meta.SnapshotMS = ms(snapDur)
	meta.TotalMS = ms(time.Since(t0))
	s.metrics.mu.Lock()
	s.metrics.analyzeMisses++
	s.metrics.mu.Unlock()
	s.metrics.observe("total", meta.TotalMS)
	s.logRequest(r, http.StatusOK, t0, "miss", req.Entry, len(data))
	writeJSON(w, http.StatusOK, AnalyzeResponse{Meta: meta, Snapshot: data})
}

func (s *Server) fail(w http.ResponseWriter, r *http.Request, t0 time.Time, status int, err error) {
	s.metrics.mu.Lock()
	s.metrics.errors++
	s.metrics.mu.Unlock()
	s.logRequest(r, status, t0, "", "", 0)
	s.log.Warn("request failed", "path", r.URL.Path, "status", status, "err", err)
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

func (s *Server) logRequest(r *http.Request, status int, t0 time.Time, cache, entry string, bytes int) {
	attrs := []any{
		"method", r.Method,
		"path", r.URL.Path,
		"status", status,
		"dur_ms", ms(time.Since(t0)),
	}
	if cache != "" {
		attrs = append(attrs, "cache", cache)
	}
	if entry != "" {
		attrs = append(attrs, "entry", entry)
	}
	if bytes > 0 {
		attrs = append(attrs, "bytes", bytes)
	}
	s.log.Info("request", attrs...)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}
