package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"wlpa/internal/analysis"
	"wlpa/internal/cast"
	"wlpa/internal/cfg"
	"wlpa/internal/irhash"
	"wlpa/internal/sem"
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
	// cores the engine can keep busy. A miss holds one slot, for its
	// analysis, its snapshot build and, on a diagnostics miss, its
	// checker passes. A request that cannot get a slot before its
	// context is done gets 503. Slots are freed before the reply is
	// written.
	MaxInflight int
	// BaselineCap bounds how many warm-edit baselines are held for
	// incremental grafting; 0 means 8. Each baseline pins a full
	// converged analysis, trimmed to what it answers with (0.2-1.2 MB
	// for a suite program, compiler 0.9 MB, on Go 1.24), so this is the
	// daemon's main memory knob.
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
	// only work a warm request pays.
	p, err := s.prepare(req.Files, req.Entry)
	if err != nil {
		s.fail(w, r, t0, http.StatusUnprocessableEntity, err)
		return
	}
	hashDur := time.Since(t0)
	s.metrics.observe("hash", ms(hashDur))

	key := store.KeyOf("program", pta.SnapshotFormat, s.optsFP,
		fmt.Sprintf("diags=%v", req.Diagnostics), p.ir.Root)
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

	data, status, err := s.analyzeMiss(r.Context(), &req, p, key, &meta)
	if err != nil {
		s.fail(w, r, t0, status, err)
		return
	}
	meta.Cache = "miss"
	meta.TotalMS = ms(time.Since(t0))
	s.metrics.mu.Lock()
	s.metrics.analyzeMisses++
	s.metrics.mu.Unlock()
	s.metrics.observe("total", meta.TotalMS)
	s.logRequest(r, http.StatusOK, t0, "miss", req.Entry, len(data))
	writeJSON(w, http.StatusOK, AnalyzeResponse{Meta: meta, Snapshot: data})
}

// The hash and the cold engine entry point, variables so that tests can
// observe the runs and the flow graphs each is given.
var (
	hashProcs      = irhash.HashProcs
	analyzeProgram = pta.AnalyzeProgramPrepared
)

// prepared is a request's program, prepared once: typechecked, its flow
// graphs built and hashed. The one analysis the request starts (a cold
// run, or a graft and its cold fallback) takes these flow graphs; the
// result kept as the entry's baseline or query entry owns them
// afterwards (pta.AnalyzeProgramPrepared).
type prepared struct {
	prog  *sem.Program
	procs map[*cast.FuncDecl]*cfg.Proc
	ir    *irhash.Program
}

// prepare runs the frontend over a request's files, builds the flow
// graphs and hashes them.
func (s *Server) prepare(files map[string]string, entry string) (*prepared, error) {
	prog, err := pta.Frontend(pta.Source(files), entry, s.cfg.Options.Predefined)
	if err != nil {
		return nil, err
	}
	procs, err := cfg.BuildAll(prog.Funcs)
	if err != nil {
		return nil, err
	}
	return &prepared{prog: prog, procs: procs, ir: hashProcs(prog, procs)}, nil
}

// analyzeMiss runs the engine for a cache miss, writes the encoded
// snapshot back to the store and registers the entry's warm-edit
// baseline. It holds one in-flight slot while it runs and frees it on
// return, before the caller writes the reply, so a client that reads
// slowly does not keep an engine slot. A diagnostics miss runs the
// checker passes over the same converged result after the snapshot
// build: there is one analysis per miss. On failure the returned status
// is the one to answer with.
func (s *Server) analyzeMiss(ctx context.Context, req *AnalyzeRequest, p *prepared, key store.Key, meta *AnalyzeMeta) ([]byte, int, error) {
	if err := s.acquire(ctx); err != nil {
		return nil, http.StatusServiceUnavailable, err
	}
	defer s.release()
	opts := s.cfg.Options

	// A registered baseline for this entry turns the miss into a
	// warm-edit graft: surviving PTFs are restored and only the edit's
	// dirty cone reconverges. The result is bit-identical to the cold
	// path (pinned by difftest.CheckIncremental), so the snapshot bytes
	// and cache entry are the same either way.
	ta := time.Now()
	var res *pta.Result
	var err error
	if bl := s.baselines.take(req.Entry); bl != nil {
		res, err = pta.AnalyzeIncrementalPrepared(bl, p.prog, p.procs, p.ir, &opts)
	} else {
		res, err = analyzeProgram(p.prog, p.procs, &opts)
	}
	if err != nil {
		return nil, http.StatusUnprocessableEntity, err
	}
	meta.AnalyzeMS = ms(time.Since(ta))
	s.metrics.observe("analyze", meta.AnalyzeMS)
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
	snap, err := res.Snapshot(&pta.SnapshotOptions{Fingerprint: key.String()})
	if err != nil {
		return nil, afterAnalysisStatus(err), err
	}
	snapDur := time.Since(ts)
	if req.Diagnostics {
		tc := time.Now()
		diags, err := res.Check(nil)
		if err != nil {
			return nil, afterAnalysisStatus(err), err
		}
		meta.CheckMS = ms(time.Since(tc))
		s.metrics.observe("check", meta.CheckMS)
		snap.SetDiagnostics(diags)
	}
	te := time.Now()
	data, err := snap.Encode()
	if err != nil {
		return nil, http.StatusInternalServerError, err
	}
	snapDur += time.Since(te)
	meta.SnapshotMS = ms(snapDur)
	s.metrics.observe("snapshot", meta.SnapshotMS)

	if err := s.store.Put(key, data); err != nil {
		// A failed write-back degrades future requests to misses; this
		// one is still correct.
		s.log.Warn("cache write failed", "key", key.String(), "err", err)
	}
	// Every successful miss leaves a baseline behind for the entry's
	// next edit. The snapshot and the checker above are done with the
	// result, so consuming it later cannot invalidate anything a client
	// was served.
	s.baselines.put(req.Entry, pta.BaselineFromHash(res, p.ir, &opts))
	return data, http.StatusOK, nil
}

// acquire waits for an in-flight engine slot until ctx is done. The
// holder frees the slot with release.
func (s *Server) acquire(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("no analysis slot available: %w", ctx.Err())
	}
}

func (s *Server) release() { <-s.sem }

// afterAnalysisStatus maps a failure of the snapshot build or the
// checker. The checker runs on the analysis' budget: running past it is
// the same named failure as an analysis timeout.
func afterAnalysisStatus(err error) int {
	if errors.Is(err, analysis.ErrTimeout) {
		return http.StatusUnprocessableEntity
	}
	return http.StatusInternalServerError
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
