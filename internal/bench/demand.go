package bench

import (
	"fmt"
	"runtime"
	"time"

	"wlpa/internal/workload"
	"wlpa/pta"
)

// DemandEntry is one benchmark's measurement in the BENCH_demand.json
// emission: what a single point query (Result.PointsToAt) costs, cold
// and warm, next to the whole-program analysis it replaces.
type DemandEntry struct {
	Name string `json:"name"`
	// Sites is how many sampled query sites the warm measurement
	// averages over (pta.SampleQuerySites).
	Sites int `json:"sites"`
	// WholeProgramNs times pta.AnalyzeProgram alone — the cost any
	// exhaustive consumer pays before it can answer anything.
	WholeProgramNs int64 `json:"whole_program_ns"`
	// ColdQueryNs times converging the program and answering one query:
	// what wlpad's POST /query pays on a miss.
	ColdQueryNs int64 `json:"cold_query_ns"`
	// WarmQueryNs is the per-query cost against an already-converged
	// result — the GET /query path. Averaged over Sites queries within
	// a round; fastest round kept.
	WarmQueryNs int64 `json:"warm_query_ns"`
	// Speedup is WholeProgramNs/WarmQueryNs: how much cheaper answering
	// one warm point query is than re-running the whole analysis.
	Speedup float64 `json:"speedup"`
}

// DemandReport is the envelope written to BENCH_demand.json.
type DemandReport struct {
	Generated string        `json:"generated"`
	GoVersion string        `json:"go_version"`
	Protocol  string        `json:"protocol"`
	Entries   []DemandEntry `json:"entries"`
}

// MeasureDemand measures point-query latency over every suite
// benchmark. All measurements are the fastest of measureRounds rounds.
func MeasureDemand() ([]DemandEntry, error) {
	var entries []DemandEntry
	for _, b := range workload.Suite() {
		e, err := measureDemandOne(b)
		if err != nil {
			return nil, err
		}
		entries = append(entries, e)
	}
	return entries, nil
}

func measureDemandOne(b workload.Benchmark) (DemandEntry, error) {
	entry := DemandEntry{Name: b.Name}

	// Whole-program floor: the exhaustive analysis by itself. A fresh
	// sem.Program per round keeps intern-table reuse out of the timing.
	for round := 0; round < measureRounds; round++ {
		prog, err := prepare(b.Name, b.Source)
		if err != nil {
			return DemandEntry{}, err
		}
		runtime.GC()
		start := time.Now()
		if _, err := pta.AnalyzeProgram(prog, nil); err != nil {
			return DemandEntry{}, fmt.Errorf("%s: whole-program: %w", b.Name, err)
		}
		ns := time.Since(start).Nanoseconds()
		if round == 0 || ns < entry.WholeProgramNs {
			entry.WholeProgramNs = ns
		}
	}

	// Site sample and the warm result the query rounds share.
	prog, err := prepare(b.Name, b.Source)
	if err != nil {
		return DemandEntry{}, err
	}
	res, err := pta.AnalyzeProgram(prog, nil)
	if err != nil {
		return DemandEntry{}, err
	}
	sites := res.SampleQuerySites(16)
	if len(sites) == 0 {
		return DemandEntry{}, fmt.Errorf("%s: no query sites sampled", b.Name)
	}
	entry.Sites = len(sites)

	// Cold query: converge and answer one site — the daemon's /query
	// miss path (frontend excluded, like every timing here).
	for round := 0; round < measureRounds; round++ {
		prog, err := prepare(b.Name, b.Source)
		if err != nil {
			return DemandEntry{}, err
		}
		runtime.GC()
		start := time.Now()
		r, err := pta.AnalyzeProgram(prog, nil)
		if err != nil {
			return DemandEntry{}, fmt.Errorf("%s: cold query: %w", b.Name, err)
		}
		r.PointsToAt(sites[0].Proc, sites[0].Line, sites[0].Expr)
		ns := time.Since(start).Nanoseconds()
		if round == 0 || ns < entry.ColdQueryNs {
			entry.ColdQueryNs = ns
		}
	}

	// Warm query: per-query cost against the held result. One untimed
	// sweep first fills the query layer's interning and lookup caches —
	// the steady state a serving daemon reaches immediately.
	for _, s := range sites {
		res.PointsToAt(s.Proc, s.Line, s.Expr)
	}
	for round := 0; round < measureRounds; round++ {
		runtime.GC()
		start := time.Now()
		for _, s := range sites {
			res.PointsToAt(s.Proc, s.Line, s.Expr)
		}
		ns := time.Since(start).Nanoseconds() / int64(len(sites))
		if round == 0 || ns < entry.WarmQueryNs {
			entry.WarmQueryNs = ns
		}
	}
	if entry.WarmQueryNs > 0 {
		entry.Speedup = float64(entry.WholeProgramNs) / float64(entry.WarmQueryNs)
	}
	return entry, nil
}

// WriteDemandJSON measures point-query latency over the suite and
// writes the report envelope to path as indented JSON.
func WriteDemandJSON(path string) error {
	entries, err := MeasureDemand()
	if err != nil {
		return err
	}
	return writeIndented(path, DemandReport{
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		Protocol:  protocolName(),
		Entries:   entries,
	})
}
