package server

import (
	"encoding/json"

	"wlpa/internal/demand"
	"wlpa/pta"
)

// AnalyzeRequest is the POST /analyze body.
type AnalyzeRequest struct {
	// Files maps file name to source text; Entry names the entry
	// translation unit (the others are available for #include).
	Files map[string]string `json:"files"`
	Entry string            `json:"entry"`
	// Diagnostics additionally runs the checker suite and embeds its
	// findings in the snapshot. Folded into the cache key.
	Diagnostics bool `json:"diagnostics,omitempty"`
}

// AnalyzeMeta is the server-side metadata of one /analyze response. It
// is excluded from the bit-identity guarantee (timings vary run to
// run); everything deterministic lives in the snapshot.
type AnalyzeMeta struct {
	// Cache is "hit" (snapshot served from the store, engine not run)
	// or "miss" (engine ran; the result was written back).
	Cache string `json:"cache"`
	// Key is the program-level cache key, hex-encoded.
	Key string `json:"key"`
	// Timings in milliseconds: frontend+hashing, engine (0 on a hit),
	// snapshot (0 on a hit), checker, end-to-end. SnapshotMS spans
	// Result.Snapshot, built without diagnostics, and Encode. CheckMS
	// times the checker passes over the miss's one analysis (0 unless
	// the miss asked for diagnostics).
	HashMS     float64 `json:"hash_ms"`
	AnalyzeMS  float64 `json:"analyze_ms"`
	SnapshotMS float64 `json:"snapshot_ms"`
	CheckMS    float64 `json:"check_ms"`
	TotalMS    float64 `json:"total_ms"`
	// ProcHits and ProcMisses are always empty.
	//
	// Deprecated: the wlpad benchmark's traced replica
	// (wlpadbench/trace.go) still assigns them. ROADMAP item 1's
	// benchmark PR removes them together with the replica. The names of
	// the procedures an edit dirtied are in Incremental.Dirty.
	ProcHits   []string `json:"proc_hits,omitempty"`
	ProcMisses []string `json:"proc_misses,omitempty"`
	// Incremental is set when a warm-edit baseline was available for the
	// entry and the miss ran through the incremental engine: what the
	// graft restored versus reconverged, or the Fallback reason it ran
	// cold. Nil on hits and on misses with no registered baseline. Like
	// the timings it is advisory — the snapshot bytes are identical
	// either way.
	Incremental *pta.IncrStats `json:"incremental,omitempty"`
}

// AnalyzeResponse is the POST /analyze response. Snapshot holds the
// encoded pta.Snapshot verbatim as stored — byte-identical between a
// cold miss and every subsequent hit.
type AnalyzeResponse struct {
	Meta     AnalyzeMeta     `json:"meta"`
	Snapshot json.RawMessage `json:"snapshot"`
}

// ErrorResponse is the body of any non-200 response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// SiteQuery names one points-to query site: the value of expr (an
// identifier with optional * prefixes) at the last node at or before
// line in proc — the same resolution rules as pta.Result.PointsToAt.
type SiteQuery struct {
	Proc string `json:"proc"`
	Line int    `json:"line"`
	Expr string `json:"expr"`
}

// QueryRequest is the POST /query body. Files and Entry are as in
// AnalyzeRequest; Queries are answered in order.
type QueryRequest struct {
	Files   map[string]string `json:"files"`
	Entry   string            `json:"entry"`
	Queries []SiteQuery       `json:"queries"`
}

// QueryAnswer is one answered site: the query echoed back plus the
// sorted points-to set (empty for a non-pointer or unresolvable site —
// same convention as the snapshot's query records).
type QueryAnswer struct {
	Proc     string   `json:"proc"`
	Line     int      `json:"line"`
	Expr     string   `json:"expr"`
	PointsTo []string `json:"points_to"`
}

// QueryMeta is the server-side metadata of one /query response.
type QueryMeta struct {
	// Cache is "warm" (answered from a held converged result, engine not
	// run) or "cold" (the engine converged the program first).
	Cache string `json:"cache"`
	// Key is the program's IR root hash — the identity the warm result
	// is held under.
	Key string `json:"key"`
	// Timings in milliseconds (hash and analyze are 0 on warm GETs).
	HashMS    float64 `json:"hash_ms,omitempty"`
	AnalyzeMS float64 `json:"analyze_ms,omitempty"`
	TotalMS   float64 `json:"total_ms"`
	// ProcHits and ProcMisses are always empty.
	//
	// Deprecated: see AnalyzeMeta.ProcHits.
	ProcHits   []string `json:"proc_hits,omitempty"`
	ProcMisses []string `json:"proc_misses,omitempty"`
	// Demand.Queries is the number of sites this request answered; the
	// other counters are always zero.
	//
	// Deprecated: the wlpad benchmark reads it (wlpadbench/drive.go)
	// and its traced replica assigns it (wlpadbench/trace.go). ROADMAP
	// item 1's benchmark PR removes it together with the replica.
	Demand demand.Stats `json:"demand"`
}

// QueryResponse is the /query response body.
type QueryResponse struct {
	Meta    QueryMeta     `json:"meta"`
	Answers []QueryAnswer `json:"answers"`
}
