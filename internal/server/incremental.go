package server

import (
	"sync"

	"wlpa/pta"
)

// defaultBaselineCap bounds how many converged baselines the daemon
// keeps alive for warm-edit grafting when Config.BaselineCap is zero.
// Each baseline pins the full analysis web of one program (PTFs,
// dependency edges, intern tables; pta.BaselineFromHash drops its
// MOD/REF table), so the registry is a small LRU over
// entry names rather than a second content-addressed cache: the edit
// workflow is "same file, new body", and the entry name is the stable
// identity across those edits.
const defaultBaselineCap = 8

// baselineRegistry holds the warm-edit baselines, keyed by entry name.
// A baseline is single-use — the graft consumes it (the underlying
// analysis is mutated in place into the new run) — so take removes it
// under the lock and the handler re-registers a fresh baseline wrapped
// around the new result when the run succeeds.
type baselineRegistry struct {
	mu        sync.Mutex
	entries   map[string]*pta.Baseline
	order     []string // LRU order, oldest first
	cap       int
	evictions uint64
}

func newBaselineRegistry(capacity int) *baselineRegistry {
	if capacity <= 0 {
		capacity = defaultBaselineCap
	}
	return &baselineRegistry{entries: map[string]*pta.Baseline{}, cap: capacity}
}

// take removes and returns the baseline registered for entry (nil when
// none is). Exclusive removal is what makes concurrent misses safe: at
// most one request grafts against a given baseline, the rest run cold.
func (br *baselineRegistry) take(entry string) *pta.Baseline {
	br.mu.Lock()
	defer br.mu.Unlock()
	b := br.entries[entry]
	if b == nil {
		return nil
	}
	delete(br.entries, entry)
	br.remove(entry)
	return b
}

// put registers a baseline for entry, evicting the least recently
// registered entry beyond the capacity.
func (br *baselineRegistry) put(entry string, b *pta.Baseline) {
	br.mu.Lock()
	defer br.mu.Unlock()
	if _, ok := br.entries[entry]; ok {
		br.remove(entry)
	}
	br.entries[entry] = b
	br.order = append(br.order, entry)
	for len(br.order) > br.cap {
		oldest := br.order[0]
		br.order = br.order[1:]
		delete(br.entries, oldest)
		br.evictions++
	}
}

// stats reports capacity, current occupancy, and lifetime evictions.
func (br *baselineRegistry) stats() (capacity, occupancy int, evictions uint64) {
	br.mu.Lock()
	defer br.mu.Unlock()
	return br.cap, len(br.entries), br.evictions
}

func (br *baselineRegistry) remove(entry string) {
	for i, e := range br.order {
		if e == entry {
			br.order = append(br.order[:i], br.order[i+1:]...)
			return
		}
	}
}
