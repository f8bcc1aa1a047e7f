package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"wlpa/internal/server"
	"wlpa/internal/store"
)

// newDaemon builds the daemon the way `wlpad serve` ships it: a
// memory-only store with the default budget, default registry caps,
// Workers 0. Request logs are formatted as usual and then discarded.
func newDaemon() (http.Handler, error) {
	st, err := store.Open("", store.DefaultMemBudget)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{
		Store:       st,
		Options:     shippedOptions(),
		MaxInflight: 2,
		BaselineCap: 8,
		Logger:      slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return nil, err
	}
	return srv.Handler(), nil
}

// recorder is a reusable in-process http.ResponseWriter.
type recorder struct {
	hdr  http.Header
	code int
	buf  bytes.Buffer
}

func newRecorder() *recorder { return &recorder{hdr: http.Header{}} }

func (w *recorder) Header() http.Header { return w.hdr }

func (w *recorder) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *recorder) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.buf.Write(b)
}

func (w *recorder) reset() {
	clear(w.hdr)
	w.code = 0
	w.buf.Reset()
}

// serve sends one request and fails unless the reply is 200.
func serve(h http.Handler, rq *Request) ([]byte, error) {
	w := newRecorder()
	h.ServeHTTP(w, rq.httpRequest())
	if w.code != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %.200s", rq.Method, rq.Target, w.code, w.buf.Bytes())
	}
	return w.buf.Bytes(), nil
}

// setUp builds a daemon (via build) and sends the warm-up requests. The
// clock runs from build until the first timed op could be sent; the
// requests themselves are prepared before it starts.
func setUp(in *Inputs, build func() (http.Handler, error)) (http.Handler, float64, error) {
	reqs := make([]*http.Request, len(in.Setup))
	for i := range in.Setup {
		reqs[i] = in.Setup[i].httpRequest()
	}
	t0 := time.Now()
	h, err := build()
	if err != nil {
		return nil, 0, err
	}
	w := newRecorder()
	for i, r := range reqs {
		w.reset()
		h.ServeHTTP(w, r)
		if w.code != http.StatusOK {
			return nil, 0, fmt.Errorf("setup %s %s: status %d: %.200s", in.Setup[i].Method, in.Setup[i].Target, w.code, w.buf.Bytes())
		}
	}
	return h, time.Since(t0).Seconds(), nil
}

// SetupResult is one set-up in a fresh process: its time, and the live
// heap after a forced collection before the daemon was built and once
// set-up was done.
type SetupResult struct {
	S          float64
	Base, Live uint64
}

// retainedMB is the live heap the warm daemon adds to the process.
func (r SetupResult) retainedMB() float64 {
	return max(float64(r.Live)-float64(r.Base), 0) / 1e6
}

// measuredSetUp sets up the shipped daemon and reads what it keeps
// once warm. The collections fall outside the set-up clock.
func measuredSetUp(in *Inputs) (http.Handler, SetupResult, error) {
	r := SetupResult{Base: liveAfterGC()}
	h, s, err := setUp(in, newDaemon)
	if err != nil {
		return nil, r, err
	}
	r.S, r.Live = s, liveAfterGC()
	// Base counted the inputs; keep them counted here too, or a set-up
	// child, which uses them no further, reads the daemon less them.
	runtime.KeepAlive(in)
	return h, r, nil
}

func daemonMetrics(h http.Handler) (server.MetricsSnapshot, error) {
	var m server.MetricsSnapshot
	body, err := serve(h, &Request{Method: "GET", Target: "/metrics"})
	if err != nil {
		return m, err
	}
	return m, json.Unmarshal(body, &m)
}

// heapAllocs reads the process-wide cumulative heap allocation count.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// gcSampler records the live heap each garbage collection marked, once
// per collection, so a run can report the live heap typical of its
// timed phase rather than the one instant at its end.
type gcSampler struct {
	s      []metrics.Sample
	cycles uint64
	live   []uint64
}

func newGCSampler() *gcSampler {
	g := &gcSampler{s: []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}}
	metrics.Read(g.s)
	g.cycles = g.s[0].Value.Uint64()
	return g
}

func (g *gcSampler) sample() {
	metrics.Read(g.s)
	if c := g.s[0].Value.Uint64(); c != g.cycles {
		g.cycles = c
		g.live = append(g.live, g.s[1].Value.Uint64())
	}
}

// liveAfterGC forces a collection and returns the live heap it marked.
func liveAfterGC() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// Counters are the per-layer counts the daemon returns in response
// meta, summed over the timed phase.
type Counters struct {
	Snapshots, SnapshotBytes int
	Increments, Grafts       int
	Restored, Reconverged    int
	Sites, Nodes, Skipped    int
	DemandQueries, Fallbacks int
}

// add reads the counters of one checked op's replies.
func (c *Counters) add(in *Inputs, o *Op, recs []*recorder) {
	if in.Workload != coldBatch {
		var q server.QueryResponse
		if json.Unmarshal(recs[len(o.Reqs)-1].buf.Bytes(), &q) == nil {
			c.Sites += len(q.Answers)
			c.Nodes += q.Meta.Demand.NodesVisited
			c.Skipped += q.Meta.Demand.SkippedCalls
			c.DemandQueries += q.Meta.Demand.Queries
			c.Fallbacks += q.Meta.Demand.Fallbacks
		}
	}
	if in.Workload != queryRead {
		var a server.AnalyzeResponse
		if json.Unmarshal(recs[0].buf.Bytes(), &a) == nil {
			c.Snapshots++
			c.SnapshotBytes += len(a.Snapshot)
			if inc := a.Meta.Incremental; inc != nil {
				c.Increments++
				if inc.Fallback == "" {
					c.Grafts++
				}
				c.Restored += inc.RestoredPTFs
				c.Reconverged += inc.ReconvergedPTFs
			}
		}
	}
}

func (c *Counters) merge(o Counters) {
	c.Snapshots += o.Snapshots
	c.SnapshotBytes += o.SnapshotBytes
	c.Increments += o.Increments
	c.Grafts += o.Grafts
	c.Restored += o.Restored
	c.Reconverged += o.Reconverged
	c.Sites += o.Sites
	c.Nodes += o.Nodes
	c.Skipped += o.Skipped
	c.DemandQueries += o.DemandQueries
	c.Fallbacks += o.Fallbacks
}

// Phase is the outcome of one timed phase.
type Phase struct {
	WallNS    int64
	Lat       [][]int64 // per client, in schedule order
	Allocs    uint64    // heap bytes allocated during the phase
	Failed    int
	Errors    []string // first few failure messages per client
	Counters  Counters
	Truncated bool
	// GCLive is the live heap after each collection that finished
	// during the phase, in order.
	GCLive []uint64
}

// ops returns how many ops completed.
func (p *Phase) ops() int {
	n := 0
	for _, l := range p.Lat {
		n += len(l)
	}
	return n
}

// opHooks let the traced run mark op boundaries; nil for untraced runs.
type opHooks struct {
	begin func(client int, op int32)
	end   func(client int)
}

// runClients drives the schedule in closed loops, one goroutine per
// client: a client sends its next op only after the previous replies
// arrive. Requests are built before an op's clock starts and replies
// are checked after it stops. deadline bounds a run on a much slower
// machine.
func runClients(handlers []http.Handler, in *Inputs, collect bool, deadline time.Duration, hooks *opHooks) *Phase {
	p := &Phase{Lat: make([][]int64, in.Clients)}
	counters := make([]Counters, in.Clients)
	errs := make([][]string, in.Clients)
	failed := make([]int, in.Clients)
	// GET requests carry no body, so each client reuses one prepared
	// request per site.
	gets := make([][]*http.Request, in.Clients)
	for c := range gets {
		gets[c] = make([]*http.Request, len(in.Ops))
		for i, o := range in.Ops {
			if o.Reqs[0].Method == "GET" {
				gets[c][i] = o.Reqs[0].httpRequest()
			}
		}
		p.Lat[c] = make([]int64, 0, len(in.Sched[c]))
	}
	// Reading the GC counters costs about a microsecond, a visible share
	// of a GET, and collections are tens of thousands of GETs apart.
	// Decoding a reply for its counters allocates about as much as a
	// GET does, so query_read reads every 16th; the counters are ratios.
	sampleEvery, collectEvery := 1, 1
	if in.Workload == queryRead {
		sampleEvery, collectEvery = 256, 16
	}
	runtime.GC()
	gc := newGCSampler()
	a0 := heapAllocs()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < in.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			recs := []*recorder{newRecorder(), newRecorder()}
			reqs := make([]*http.Request, 2)
			for _, idx := range in.Sched[c] {
				if time.Since(start) > deadline {
					return
				}
				o := &in.Ops[idx]
				for j := range o.Reqs {
					if gets[c][idx] != nil {
						reqs[j] = gets[c][idx]
					} else {
						reqs[j] = o.Reqs[j].httpRequest()
					}
					recs[j].reset()
				}
				if hooks != nil {
					hooks.begin(c, idx)
				}
				t0 := time.Now()
				for j := range o.Reqs {
					handlers[c].ServeHTTP(recs[j], reqs[j])
				}
				t1 := time.Now()
				if hooks != nil {
					hooks.end(c)
				}
				p.Lat[c] = append(p.Lat[c], int64(t1.Sub(t0)))
				if c == 0 && len(p.Lat[c])%sampleEvery == 0 {
					gc.sample()
				}
				if err := checkReply(in, o, recs); err != nil {
					failed[c]++
					if len(errs[c]) < 3 {
						errs[c] = append(errs[c], err.Error())
					}
				} else if collect && len(p.Lat[c])%collectEvery == 0 {
					counters[c].add(in, o, recs)
				}
			}
		}(c)
	}
	wg.Wait()
	p.WallNS = int64(time.Since(start))
	p.Allocs = heapAllocs() - a0
	p.GCLive = gc.live
	for c := range p.Lat {
		p.Failed += failed[c]
		p.Errors = append(p.Errors, errs[c]...)
		p.Counters.merge(counters[c])
		p.Truncated = p.Truncated || len(p.Lat[c]) < len(in.Sched[c])
	}
	return p
}

// TimedResult is what the timed child reports: one set-up, the timed
// phase, the live heap after it and the daemon's counters.
type TimedResult struct {
	Setup     SetupResult
	Phase     *Phase
	LiveEnd   uint64 // live heap after the timed phase
	Before    server.MetricsSnapshot
	After     server.MetricsSnapshot
	RunErrors []string
}

// timedChild runs in a fresh process, so the heap it measures holds
// the inputs, the references and the daemon, and nothing the parent's
// reference analyses or earlier set-ups left behind.
func timedChild(in *Inputs, deadline time.Duration, collect bool) (*TimedResult, error) {
	r := &TimedResult{}
	h, su, err := measuredSetUp(in)
	if err != nil {
		return nil, err
	}
	r.Setup = su
	if r.Before, err = daemonMetrics(h); err != nil {
		return nil, err
	}
	handlers := make([]http.Handler, in.Clients)
	for c := range handlers {
		handlers[c] = h
	}
	r.Phase = runClients(handlers, in, collect, deadline, nil)
	r.LiveEnd = liveAfterGC()
	if r.After, err = daemonMetrics(h); err != nil {
		return nil, err
	}
	r.RunErrors = classErrors(in, r.Before, r.After, r.Phase.ops())
	if in.Workload == coldBatch {
		r.RunErrors = append(r.RunErrors, fixtureChecks(h)...)
	}
	return r, nil
}

// classErrors checks from /metrics that the timed phase did what the
// workload claims; checkReply checks the same per op from response meta.
func classErrors(in *Inputs, b, a server.MetricsSnapshot, ops int) []string {
	n := uint64(ops)
	var errs []string
	expect := func(what string, got, want uint64) {
		if got != want {
			errs = append(errs, fmt.Sprintf("%s: /metrics counted %d, want %d", what, got, want))
		}
	}
	misses := a.Requests.Misses - b.Requests.Misses
	hits := a.Requests.Hits - b.Requests.Hits
	incr := a.Incremental.Grafts + a.Incremental.Fallbacks - b.Incremental.Grafts - b.Incremental.Fallbacks
	cold := a.Query.Cold - b.Query.Cold
	switch in.Workload {
	case coldBatch:
		expect("cold_batch misses", misses, n)
		expect("cold_batch hits", hits, 0)
		expect("cold_batch graft attempts", incr, 0)
	case editSession:
		expect("edit_session misses", misses, n)
		expect("edit_session hits", hits, 0)
		expect("edit_session grafts+fallbacks", incr, n)
		expect("edit_session hover converges", cold, n)
	case queryRead:
		expect("query_read analyze requests", a.Requests.Analyze-b.Requests.Analyze, 0)
		expect("query_read engine runs", cold, 0)
		expect("query_read warm answers", a.Query.Warm-b.Query.Warm, n)
	}
	return errs
}
