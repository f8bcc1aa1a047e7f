package demand

// Stats reports the point queries one request answered: Queries counts
// the sites; the other four fields are always zero.
//
// Deprecated: the wlpad benchmark (wlpadbench/drive.go, and its traced
// replica in wlpadbench/trace.go) still compiles against this type and
// its five fields. ROADMAP item 1's benchmark PR removes it together
// with the replica.
type Stats struct {
	Queries      int `json:"queries"`
	NodesVisited int `json:"nodes_visited"`
	Probes       int `json:"probes"`
	SkippedCalls int `json:"skipped_calls"`
	Fallbacks    int `json:"fallbacks"`
}
