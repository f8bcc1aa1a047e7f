package server

import (
	"sync"

	"wlpa/internal/store"
)

// latencyBucketsMS are the fixed upper bounds (milliseconds) of the
// per-phase latency histograms; an implicit +Inf bucket follows.
var latencyBucketsMS = []float64{1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// Histogram is a fixed-bucket latency histogram (cumulative counts are
// left to consumers; Counts[i] is the observations in (bound[i-1],
// bound[i]], Counts[len(Buckets)] the +Inf overflow).
type Histogram struct {
	BucketsMS []float64 `json:"buckets_ms"`
	Counts    []uint64  `json:"counts"`
	SumMS     float64   `json:"sum_ms"`
	Count     uint64    `json:"count"`
}

func newHistogram() *Histogram {
	return &Histogram{
		BucketsMS: latencyBucketsMS,
		Counts:    make([]uint64, len(latencyBucketsMS)+1),
	}
}

func (h *Histogram) observe(ms float64) {
	i := 0
	for i < len(h.BucketsMS) && ms > h.BucketsMS[i] {
		i++
	}
	h.Counts[i]++
	h.SumMS += ms
	h.Count++
}

func (h *Histogram) clone() *Histogram {
	c := *h
	c.Counts = append([]uint64(nil), h.Counts...)
	return &c
}

// metrics aggregates the daemon's counters; snapshotted by /metrics.
type metrics struct {
	mu sync.Mutex

	analyzeRequests uint64
	analyzeHits     uint64
	analyzeMisses   uint64
	errors          uint64
	inflight        int

	warmGrafts    uint64
	warmFallbacks uint64

	queryRequests uint64
	queryWarm     uint64
	queryCold     uint64

	latency map[string]*Histogram // phase -> histogram
}

func newMetrics() *metrics {
	return &metrics{latency: map[string]*Histogram{
		"hash":     newHistogram(),
		"analyze":  newHistogram(),
		"snapshot": newHistogram(),
		"total":    newHistogram(),
		"query":    newHistogram(),
	}}
}

func (m *metrics) observe(phase string, ms float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if h, ok := m.latency[phase]; ok {
		h.observe(ms)
	}
}

// MetricsSnapshot is the GET /metrics body.
type MetricsSnapshot struct {
	UptimeSeconds float64 `json:"uptime_s"`
	Requests      struct {
		Analyze  uint64 `json:"analyze"`
		Hits     uint64 `json:"hits"`
		Misses   uint64 `json:"misses"`
		Errors   uint64 `json:"errors"`
		Inflight int    `json:"inflight"`
	} `json:"requests"`
	// Incremental counts misses that had a warm-edit baseline available:
	// grafts reconverged only the edit's dirty cone, fallbacks found the
	// baseline inapplicable and ran cold.
	Incremental struct {
		Grafts    uint64 `json:"grafts"`
		Fallbacks uint64 `json:"fallbacks"`
	} `json:"incremental"`
	// Baselines reports the warm-edit baseline LRU: its configured
	// capacity, how many entries it currently holds, and how many were
	// evicted (not consumed) over the daemon's lifetime.
	Baselines struct {
		Capacity  int    `json:"capacity"`
		Occupancy int    `json:"occupancy"`
		Evictions uint64 `json:"evictions"`
	} `json:"baselines"`
	// Query reports the demand-query endpoint: warm requests answered
	// from a held result without running the engine, cold requests that
	// converged first, and the warm-result LRU's state.
	Query struct {
		Requests  uint64 `json:"requests"`
		Warm      uint64 `json:"warm"`
		Cold      uint64 `json:"cold"`
		Occupancy int    `json:"occupancy"`
		Evictions uint64 `json:"evictions"`
	} `json:"query"`
	Store     store.Stats           `json:"store"`
	LatencyMS map[string]*Histogram `json:"latency_ms"`
}

func (m *metrics) snapshot() MetricsSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out MetricsSnapshot
	out.Requests.Analyze = m.analyzeRequests
	out.Requests.Hits = m.analyzeHits
	out.Requests.Misses = m.analyzeMisses
	out.Requests.Errors = m.errors
	out.Requests.Inflight = m.inflight
	out.Incremental.Grafts = m.warmGrafts
	out.Incremental.Fallbacks = m.warmFallbacks
	out.Query.Requests = m.queryRequests
	out.Query.Warm = m.queryWarm
	out.Query.Cold = m.queryCold
	out.LatencyMS = make(map[string]*Histogram, len(m.latency))
	for phase, h := range m.latency {
		out.LatencyMS[phase] = h.clone()
	}
	return out
}
