package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"wlpa/internal/analysis"
	"wlpa/internal/cast"
	"wlpa/internal/cfg"
	"wlpa/internal/check"
	"wlpa/internal/cparse"
	"wlpa/internal/cpp"
	"wlpa/internal/demand"
	"wlpa/internal/irhash"
	"wlpa/internal/libsum"
	"wlpa/internal/sem"
	"wlpa/internal/server"
	"wlpa/internal/store"
	"wlpa/pta"
)

// The traced run replays the schedule through a replica of the daemon's
// handlers, built from the same public calls in the same order, with a
// span around each call. Tracing inside the program is left to the
// program; this file only wraps the calls it makes.

// span is one logged traced call. Spans of one op share its schedule
// index; Parent is the index of the enclosing span in the same log.
type span struct {
	Name   string
	Op     int32 // index into Inputs.Ops; -1 during set-up
	Parent int32 // -1 for an op's root span and for probes
	Start  int64 // ns since the run's epoch
	End    int64
	Allocs uint64 // process-wide heap bytes allocated while open
}

// rootSpan encloses one op; probeSpan marks a measurement made after an
// op for a number the pipeline cannot show (see probeFixpoint).
const (
	rootSpan  = "op"
	probeSpan = "analysis.fixpoint"
)

// maxLoggedSpans bounds the span log a run keeps and writes out;
// per-layer aggregates cover every span regardless.
const maxLoggedSpans = 1 << 18

// openSpan is a span in progress, with what its children have used.
type openSpan struct {
	log         int32 // index in tracer.log, or -1 when not logged
	name        string
	start       time.Time
	allocs      uint64
	childNS     int64
	childAllocs uint64
}

// Agg sums one span name's self time, calls and self allocations.
type Agg struct {
	SelfNS int64
	Calls  int
	Allocs uint64
}

// Aggregate is a traced run's per-layer totals over timed ops.
type Aggregate struct {
	ByName   map[string]*Agg
	ByProg   map[string]map[string]int64 // program -> span name -> self ns
	ProgOps  map[string]int
	ProgOpNS map[string]int64
	Ops      int
	OpNS     int64 // root span time summed over ops
	Counts   traceCounts
}

func newAggregate() *Aggregate {
	return &Aggregate{ByName: map[string]*Agg{}, ByProg: map[string]map[string]int64{},
		ProgOps: map[string]int{}, ProgOpNS: map[string]int64{}}
}

func (a *Aggregate) add(name, prog string, self, dur int64, allocs uint64) {
	g := a.ByName[name]
	if g == nil {
		g = &Agg{}
		a.ByName[name] = g
	}
	g.SelfNS += self
	g.Calls++
	g.Allocs += allocs
	if a.ByProg[prog] == nil {
		a.ByProg[prog] = map[string]int64{}
	}
	a.ByProg[prog][name] += self
	if name == rootSpan {
		a.Ops++
		a.OpNS += dur
		a.ProgOps[prog]++
		a.ProgOpNS[prog] += dur
	}
}

func (a *Aggregate) merge(b *Aggregate) {
	for n, g := range b.ByName {
		if a.ByName[n] == nil {
			a.ByName[n] = &Agg{}
		}
		a.ByName[n].SelfNS += g.SelfNS
		a.ByName[n].Calls += g.Calls
		a.ByName[n].Allocs += g.Allocs
	}
	for p, m := range b.ByProg {
		if a.ByProg[p] == nil {
			a.ByProg[p] = map[string]int64{}
		}
		for n, v := range m {
			a.ByProg[p][n] += v
		}
	}
	for p, n := range b.ProgOps {
		a.ProgOps[p] += n
		a.ProgOpNS[p] += b.ProgOpNS[p]
	}
	a.Ops += b.Ops
	a.OpNS += b.OpNS
	a.Counts.Analyses += b.Counts.Analyses
	a.Counts.Nodes += b.Counts.Nodes
	a.Counts.Checks += b.Counts.Checks
	a.Counts.Diags += b.Counts.Diags
}

// tracer is one client's span recorder. Spans nest strictly, so the
// open ones form a stack; self time is computed as each one ends.
type tracer struct {
	epoch  time.Time
	log    []span
	open   []openSpan
	op     int32
	prog   string
	agg    *Aggregate
	probes []*sem.Program // programs analyzed during the current op
	err    error          // first probe failure
}

// traceCounts are work counts the replica sees that no reply carries.
type traceCounts struct {
	Analyses, Nodes int // analysis runs and grafts, nodes they evaluated
	Checks, Diags   int // checker runs, diagnostics they reported
}

func (t *tracer) count(f func(*traceCounts)) {
	if t.op >= 0 {
		f(&t.agg.Counts)
	}
}

func (t *tracer) begin(name string) {
	o := openSpan{log: -1, name: name}
	if len(t.log) < maxLoggedSpans {
		parent := int32(-1)
		if n := len(t.open); n > 0 {
			parent = t.open[n-1].log
		}
		o.log = int32(len(t.log))
		t.log = append(t.log, span{Name: name, Op: t.op, Parent: parent})
	}
	o.allocs = heapAllocs()
	o.start = time.Now()
	t.open = append(t.open, o)
}

func (t *tracer) end() {
	now := time.Now()
	allocs := heapAllocs()
	o := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	dur, used := int64(now.Sub(o.start)), allocs-o.allocs
	if n := len(t.open); n > 0 {
		t.open[n-1].childNS += dur
		t.open[n-1].childAllocs += used
	}
	if o.log >= 0 {
		s := &t.log[o.log]
		s.Start, s.End, s.Allocs = int64(o.start.Sub(t.epoch)), int64(now.Sub(t.epoch)), used
	}
	if t.op >= 0 {
		t.agg.add(o.name, t.prog, dur-o.childNS, dur, used-o.childAllocs)
	}
}

// lru is the replica's version of the daemon's entry-keyed registries.
type lru[V any] struct {
	cap   int
	order []string // oldest first
	vals  map[string]V
}

func newLRU[V any](capacity int) *lru[V] { return &lru[V]{cap: capacity, vals: map[string]V{}} }

func (l *lru[V]) remove(k string) {
	for i, e := range l.order {
		if e == k {
			l.order = append(l.order[:i], l.order[i+1:]...)
			return
		}
	}
}

// take removes and returns k's value (the baseline registry's rule).
func (l *lru[V]) take(k string) (V, bool) {
	v, ok := l.vals[k]
	if ok {
		delete(l.vals, k)
		l.remove(k)
	}
	return v, ok
}

// get returns k's value and refreshes it (the query registry's rule).
func (l *lru[V]) get(k string) (V, bool) {
	v, ok := l.vals[k]
	if ok {
		l.remove(k)
		l.order = append(l.order, k)
	}
	return v, ok
}

func (l *lru[V]) put(k string, v V) {
	if _, ok := l.vals[k]; ok {
		l.remove(k)
	}
	l.vals[k] = v
	l.order = append(l.order, k)
	for len(l.order) > l.cap {
		delete(l.vals, l.order[0])
		l.order = l.order[1:]
	}
}

type replicaQuery struct {
	mu   sync.Mutex
	root string
	d    *pta.Demand
}

// replica mirrors server.Server: its own memory-only store, warm-edit
// baselines (cap 8) and warm query results (cap 4).
type replica struct {
	opts      pta.Options
	optsFP    string
	checkOpts analysis.Options // what Result.Check re-runs with
	store     *store.Store
	log       *slog.Logger
	mu        sync.Mutex // guards the registries
	baselines *lru[*pta.Baseline]
	queries   *lru[*replicaQuery]
}

func newReplica() (*replica, error) {
	st, err := store.Open("", store.DefaultMemBudget)
	if err != nil {
		return nil, err
	}
	o := shippedOptions()
	return &replica{
		opts: o,
		// The daemon's cache-key fingerprint of o (server.optionsFingerprint).
		optsFP: fmt.Sprintf("policy=%d maxptfs=%d combine=%v forcefull=%v",
			o.Policy, o.MaxPTFs, o.CombineOffsets, o.ForceFullPasses),
		checkOpts: analysis.Options{
			Lib: libsum.Summaries(), LibEffects: libsum.Effects(),
			CollectSolution: true, TrackNull: true,
			Workers: o.Workers, Timeout: o.Timeout,
		},
		store:     st,
		log:       slog.New(slog.NewTextHandler(io.Discard, nil)),
		baselines: newLRU[*pta.Baseline](8),
		queries:   newLRU[*replicaQuery](4),
	}, nil
}

// replicaClient is one client's view of the replica: shared state, its
// own span log.
type replicaClient struct {
	r *replica
	t *tracer
}

func (c *replicaClient) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var err error
	switch {
	case r.Method == "POST" && r.URL.Path == "/analyze":
		err = c.analyze(w, r)
	case r.Method == "POST" && r.URL.Path == "/query":
		err = c.queryPost(w, r)
	case r.Method == "GET" && r.URL.Path == "/query":
		err = c.queryGet(w, r)
	default:
		err = fmt.Errorf("replica does not serve %s %s", r.Method, r.URL.Path)
	}
	if err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, server.ErrorResponse{Error: err.Error()})
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) // the recorder's Write cannot fail
}

// frontend is the daemon's hashing path, one span per module.
func (c *replicaClient) frontend(files map[string]string, entry string) (*sem.Program, map[*cast.FuncDecl]*cfg.Proc, *irhash.Program, error) {
	t := c.t
	t.begin("cpp")
	toks, err := cpp.Preprocess(cpp.Source(files), entry, c.r.opts.Predefined)
	t.end()
	if err != nil {
		return nil, nil, nil, err
	}
	t.begin("cparse")
	f, err := cparse.ParseTokens(entry, toks)
	t.end()
	if err != nil {
		return nil, nil, nil, err
	}
	t.begin("sem")
	prog, err := sem.Check(f)
	t.end()
	if err != nil {
		return nil, nil, nil, err
	}
	t.begin("cfg")
	procs, err := cfg.BuildAll(prog.Funcs)
	t.end()
	if err != nil {
		return nil, nil, nil, err
	}
	t.begin("irhash")
	ir := irhash.HashProcs(prog, procs)
	t.end()
	return prog, procs, ir, nil
}

func (c *replicaClient) analyze(w http.ResponseWriter, r *http.Request) error {
	t, rp := c.t, c.r
	t.begin("server.decode")
	var req server.AnalyzeRequest
	err := json.NewDecoder(r.Body).Decode(&req)
	t.end()
	if err != nil {
		return err
	}
	prog, procs, ir, err := c.frontend(req.Files, req.Entry)
	if err != nil {
		return err
	}
	key := store.KeyOf("program", pta.SnapshotFormat, rp.optsFP, fmt.Sprintf("diags=%v", req.Diagnostics), ir.Root)
	meta := server.AnalyzeMeta{Key: key.String(), Cache: "hit"}
	t.begin("store.get")
	data, hit := rp.store.Get(key)
	t.end()
	if !hit {
		meta.Cache = "miss"
		rp.mu.Lock()
		bl, ok := rp.baselines.take(req.Entry)
		rp.mu.Unlock()
		var res *pta.Result
		opts := rp.opts
		if ok {
			t.begin("analysis.graft")
			res, err = pta.AnalyzeIncrementalPrepared(bl, prog, procs, ir, &opts)
		} else {
			t.begin("analysis.run")
			res, err = pta.AnalyzeProgram(prog, &opts)
			t.probes = append(t.probes, prog)
		}
		t.end()
		if err != nil {
			return err
		}
		t.count(func(n *traceCounts) { n.Analyses++; n.Nodes += res.Stats().NodesEvaluated })
		meta.Incremental = res.Incremental()
		if data, err = c.snapshot(res, prog, key.String(), req.Diagnostics); err != nil {
			return err
		}
		t.begin("store.put")
		err = rp.store.Put(key, data)
		t.end()
		if err != nil {
			return err
		}
		meta.ProcHits, meta.ProcMisses = c.ledger(res, ir)
		rp.mu.Lock()
		rp.baselines.put(req.Entry, pta.BaselineFromHash(res, ir, &opts))
		rp.mu.Unlock()
	}
	t.begin("server.encode")
	rp.log.Info("request", "method", r.Method, "path", r.URL.Path, "status", 200, "cache", meta.Cache, "entry", req.Entry, "bytes", len(data))
	writeJSON(w, http.StatusOK, server.AnalyzeResponse{Meta: meta, Snapshot: data})
	t.end()
	return nil
}

// snapshot is Result.Snapshot with the checker run split into its two
// halves, as Result.Check runs them: the null-tracking re-analysis and
// the passes.
func (c *replicaClient) snapshot(res *pta.Result, prog *sem.Program, fp string, diags bool) ([]byte, error) {
	t := c.t
	t.begin("snapshot.build")
	snap, err := res.Snapshot(&pta.SnapshotOptions{Fingerprint: fp})
	t.end()
	if err != nil {
		return nil, err
	}
	if diags {
		t.begin("check.reanalyze")
		an, err := analysis.New(prog, c.r.checkOpts)
		if err == nil {
			err = an.Run()
		}
		t.end()
		if err != nil {
			return nil, err
		}
		t.begin("check.passes")
		ds, err := check.Run(an, check.Options{})
		t.end()
		if err != nil {
			return nil, err
		}
		t.count(func(n *traceCounts) { n.Checks++; n.Diags += len(ds) })
		t.begin("snapshot.build")
		snap.HasDiags = true
		snap.Diags = make([]pta.SnapshotDiag, 0, len(ds))
		for _, d := range ds {
			snap.Diags = append(snap.Diags, pta.SnapshotDiag{
				Check: d.Check, Severity: d.Sev.String(), File: d.Pos.File,
				Line: d.Pos.Line, Col: d.Pos.Col, Proc: d.Proc, Message: d.Message,
				Contexts: d.Contexts, Trace: d.Trace,
			})
		}
		t.end()
	}
	t.begin("snapshot.encode")
	data, err := snap.Encode()
	t.end()
	return data, err
}

// procArtifact mirrors the daemon's per-procedure ledger value.
type procArtifact struct {
	Format       string   `json:"format"`
	Proc         string   `json:"proc"`
	NumPTFs      int      `json:"num_ptfs"`
	DomainDigest string   `json:"domain_digest"`
	ModRef       []string `json:"mod_ref,omitempty"`
}

// ledger is the daemon's per-procedure ledger probe and write-back,
// with its store calls as child spans.
func (c *replicaClient) ledger(res *pta.Result, ir *irhash.Program) (hits, misses []string) {
	t, rp := c.t, c.r
	t.begin("server.ledger")
	defer t.end()
	domains := res.DomainDigests()
	modRefByProc := map[string][]string{}
	for _, line := range res.ModRefDump() {
		if i := strings.IndexByte(line, ':'); i >= 0 {
			modRefByProc[line[:i]] = append(modRefByProc[line[:i]], line)
		}
	}
	procs := res.Procedures()
	sort.Strings(procs)
	for _, proc := range procs {
		ph := ir.ProcHash(proc)
		dom, ok := domains[proc]
		if ph == nil || !ok {
			continue
		}
		pkey := store.KeyOf("proc", "wlpa/procart/v1", rp.optsFP, ir.Globals, ph.Closure, dom)
		t.begin("store.get")
		_, found := rp.store.Get(pkey)
		t.end()
		if found {
			hits = append(hits, proc)
			continue
		}
		misses = append(misses, proc)
		data, err := json.Marshal(procArtifact{Format: "wlpa/procart/v1", Proc: proc,
			NumPTFs: res.NumPTFs(proc), DomainDigest: dom, ModRef: modRefByProc[proc]})
		if err == nil {
			t.begin("store.put")
			_ = rp.store.Put(pkey, data) // memory-only: Put cannot fail
			t.end()
		}
	}
	return hits, misses
}

func (c *replicaClient) queryPost(w http.ResponseWriter, r *http.Request) error {
	t, rp := c.t, c.r
	t.begin("server.decode")
	var req server.QueryRequest
	err := json.NewDecoder(r.Body).Decode(&req)
	t.end()
	if err != nil {
		return err
	}
	prog, _, ir, err := c.frontend(req.Files, req.Entry)
	if err != nil {
		return err
	}
	meta := server.QueryMeta{Key: ir.Root, Cache: "warm"}
	rp.mu.Lock()
	e, ok := rp.queries.get(req.Entry)
	rp.mu.Unlock()
	if !ok || e.root != ir.Root {
		meta.Cache = "cold"
		opts := rp.opts
		t.begin("analysis.run")
		res, err := pta.AnalyzeProgram(prog, &opts)
		t.end()
		if err != nil {
			return err
		}
		t.probes = append(t.probes, prog)
		t.count(func(n *traceCounts) { n.Analyses++; n.Nodes += res.Stats().NodesEvaluated })
		meta.ProcHits, meta.ProcMisses = c.ledger(res, ir)
		e = &replicaQuery{root: ir.Root, d: res.Demand(nil)}
		rp.mu.Lock()
		rp.queries.put(req.Entry, e)
		rp.mu.Unlock()
	}
	answers := make([]server.QueryAnswer, len(req.Queries))
	e.mu.Lock()
	before := e.d.Stats()
	for i, q := range req.Queries {
		t.begin("demand.query")
		answers[i] = server.QueryAnswer{Proc: q.Proc, Line: q.Line, Expr: q.Expr,
			PointsTo: e.d.PointsToAt(q.Proc, q.Line, q.Expr)}
		t.end()
	}
	meta.Demand = demandDelta(before, e.d.Stats())
	e.mu.Unlock()
	t.begin("server.encode")
	rp.log.Info("request", "method", r.Method, "path", r.URL.Path, "status", 200, "cache", meta.Cache, "entry", req.Entry)
	writeJSON(w, http.StatusOK, server.QueryResponse{Meta: meta, Answers: answers})
	t.end()
	return nil
}

func (c *replicaClient) queryGet(w http.ResponseWriter, r *http.Request) error {
	t, rp := c.t, c.r
	t.begin("server.decode")
	q := r.URL.Query()
	entry, proc, expr := q.Get("entry"), q.Get("proc"), q.Get("expr")
	line, err := strconv.Atoi(q.Get("line"))
	t.end()
	if err != nil {
		return err
	}
	rp.mu.Lock()
	e, ok := rp.queries.get(entry)
	rp.mu.Unlock()
	if !ok {
		return fmt.Errorf("no warm result for entry %q", entry)
	}
	e.mu.Lock()
	before := e.d.Stats()
	t.begin("demand.query")
	pts := e.d.PointsToAt(proc, line, expr)
	t.end()
	meta := server.QueryMeta{Cache: "warm", Key: e.root, Demand: demandDelta(before, e.d.Stats())}
	e.mu.Unlock()
	t.begin("server.encode")
	rp.log.Info("request", "method", r.Method, "path", r.URL.Path, "status", 200, "cache", "warm", "entry", entry)
	writeJSON(w, http.StatusOK, server.QueryResponse{Meta: meta,
		Answers: []server.QueryAnswer{{Proc: proc, Line: line, Expr: expr, PointsTo: pts}}})
	t.end()
	return nil
}

func demandDelta(before, after demand.Stats) demand.Stats {
	return demand.Stats{
		Queries:      after.Queries - before.Queries,
		NodesVisited: after.NodesVisited - before.NodesVisited,
		Probes:       after.Probes - before.Probes,
		SkippedCalls: after.SkippedCalls - before.SkippedCalls,
		Fallbacks:    after.Fallbacks - before.Fallbacks,
	}
}

// probeFixpoint times the fixpoint alone on each program the op
// analyzed: analysis.New and Run with solution collection off. The
// span has no parent, so it is outside the op's time.
func (c *replicaClient) probeFixpoint() error {
	t := c.t
	o := c.r.checkOpts
	o.TrackNull, o.CollectSolution = false, false
	for _, prog := range t.probes {
		t.begin(probeSpan)
		an, err := analysis.New(prog, o)
		if err == nil {
			err = an.Run()
		}
		t.end()
		if err != nil {
			return err
		}
	}
	t.probes = t.probes[:0]
	return nil
}

// TracedResult is what the traced child reports.
type TracedResult struct {
	Agg    *Aggregate
	Failed int
	Errors []string
}

// tracedChild replays the schedule through the replica in a fresh
// process: set-up through client 0 (spans kept in the log, not in the
// aggregates), then the timed schedule with one root span per op and
// the fixpoint probes after each op. spansFile, when set, receives the
// span log as tab-separated lines.
func tracedChild(in *Inputs, deadline time.Duration, spansFile string) (*TracedResult, error) {
	rp, err := newReplica()
	if err != nil {
		return nil, err
	}
	epoch := time.Now()
	clients := make([]*replicaClient, in.Clients)
	handlers := make([]http.Handler, in.Clients)
	for c := range clients {
		clients[c] = &replicaClient{r: rp, t: &tracer{epoch: epoch, op: -1, agg: newAggregate()}}
		handlers[c] = clients[c]
	}
	if _, _, err := setUp(in, func() (http.Handler, error) { return clients[0], nil }); err != nil {
		return nil, err
	}
	clients[0].t.probes = nil
	hooks := &opHooks{
		begin: func(c int, op int32) {
			t := clients[c].t
			t.op, t.prog = op, in.Ops[op].Prog
			t.begin(rootSpan)
		},
		end: func(c int) {
			t := clients[c].t
			t.end()
			if err := clients[c].probeFixpoint(); err != nil && t.err == nil {
				t.err = err
			}
		},
	}
	ph := runClients(handlers, in, false, deadline, hooks)
	res := &TracedResult{Agg: newAggregate(), Failed: ph.Failed, Errors: ph.Errors}
	for _, c := range clients {
		res.Agg.merge(c.t.agg)
		if c.t.err != nil {
			return nil, fmt.Errorf("fixpoint probe: %w", c.t.err)
		}
	}
	if ph.Truncated {
		res.Errors = append(res.Errors, fmt.Sprintf("traced run hit its deadline after %d ops", ph.ops()))
	}
	if spansFile != "" {
		if err := writeSpans(spansFile, clients); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// writeSpans writes every client's span log, one span per line:
// client, op, span index, parent index, name, start ns, end ns, bytes.
func writeSpans(path string, clients []*replicaClient) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "client\top\tspan\tparent\tname\tstart_ns\tend_ns\talloc_bytes")
	for c, cl := range clients {
		for i, s := range cl.t.log {
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%d\t%d\t%d\n", c, s.Op, i, s.Parent, s.Name, s.Start, s.End, s.Allocs)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
