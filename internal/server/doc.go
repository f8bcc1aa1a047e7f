// Package server implements the wlpad analysis daemon: a long-lived
// HTTP/JSON service that answers pointer-analysis requests out of a
// content-addressed cache (internal/store) and only runs the worklist
// engine on a miss.
//
// The serving fast path keys a whole request by
//
//	H(snapshot format, options fingerprint, diagnostics flag, irhash.Root)
//
// where irhash.Root digests the program after frontend normalization —
// the paper's observation that analysis results are a pure function of
// the normalized program and the analysis configuration, applied at
// program granularity. A hit returns the cached pta.Snapshot bytes
// without touching the engine; the bytes are identical to what a cold
// analysis would produce (pta's bit-identity guarantee, pinned by
// TestColdWarmBitIdentity).
//
// A miss for an entry that has a warm-edit baseline grafts instead of
// running cold (pta.AnalyzeIncrementalPrepared): procedures whose
// closure hash survived the edit keep their converged PTFs, and the
// response's meta.incremental names the dirty ones — the edited
// procedures and their transitive callers. /query answers point queries
// from a held converged result through pta.Result.PointsToAt.
//
// Invariants:
//
//   - A cache hit never differs from recomputation: every key folds in
//     the format version and the options fingerprint, and the store
//     validates entry checksums (corruption degrades to a miss).
//   - Responses embed the cached snapshot bytes verbatim; server-side
//     metadata (timings, cache status) travels in a separate meta
//     object excluded from the identity guarantee.
//   - The engine runs under a bounded in-flight semaphore and a
//     per-request wall-clock budget; an exceeded budget is an error
//     response, never a partial result. A miss holds one slot and runs
//     one analysis; a diagnostics miss's checker reads that analysis,
//     in the same slot and on the same budget. The slot is freed
//     before the reply is written.
//   - Concurrent identical misses may each run the engine (no
//     single-flight); both converge to identical bytes, so the last
//     Put wins harmlessly.
package server
