package bench

import (
	"fmt"

	"wlpa/internal/sem"
	"wlpa/internal/workload"
	"wlpa/pta"
)

// Query is a program's point-query measurement: what a single
// Result.PointsToAt query costs, cold and warm. The whole-program
// analysis it replaces is the entry's WholeProgramNs.
type Query struct {
	// Sites is how many sampled query sites the warm measurement
	// averages over (pta.SampleQuerySites).
	Sites int `json:"sites"`
	// ColdQueryNs times converging the program and answering one query:
	// what wlpad's POST /query pays on a miss.
	ColdQueryNs int64 `json:"cold_query_ns"`
	// WarmQueryNs is the per-query cost against an already-converged
	// result — the GET /query path. Averaged over Sites queries within
	// a round; fastest round kept.
	WarmQueryNs int64 `json:"warm_query_ns"`
	// Speedup is the entry's WholeProgramNs/WarmQueryNs: how much
	// cheaper answering one warm point query is than re-running the
	// whole analysis.
	Speedup float64 `json:"speedup"`
}

// measureQuery measures point-query latency on one program. Speedup is
// left to the caller, which holds the whole-program time.
func measureQuery(b workload.Benchmark) (Query, error) {
	// Site sample and the warm result the query rounds share.
	prog, err := prepare(b.Name, b.Source)
	if err != nil {
		return Query{}, err
	}
	res, err := pta.AnalyzeProgram(prog, nil)
	if err != nil {
		return Query{}, err
	}
	sites := res.SampleQuerySites(16)
	if len(sites) == 0 {
		return Query{}, fmt.Errorf("%s: no query sites sampled", b.Name)
	}
	q := Query{Sites: len(sites)}

	// Cold query: converge and answer one site — the daemon's /query
	// miss path (frontend excluded, like every timing here).
	if q.ColdQueryNs, _, err = bestOf(fresh(b.Name, b.Source), func(prog *sem.Program) error {
		r, err := pta.AnalyzeProgram(prog, nil)
		if err != nil {
			return err
		}
		r.PointsToAt(sites[0].Proc, sites[0].Line, sites[0].Expr)
		return nil
	}); err != nil {
		return Query{}, fmt.Errorf("%s: cold query: %w", b.Name, err)
	}

	// Warm query: per-query cost against the held result. One untimed
	// sweep first interns the location sets the queries read — the
	// steady state a serving daemon reaches immediately.
	sweep := func(r *pta.Result) error {
		for _, s := range sites {
			r.PointsToAt(s.Proc, s.Line, s.Expr)
		}
		return nil
	}
	_ = sweep(res) // the untimed warming sweep; sweep never fails
	held := func() (*pta.Result, error) { return res, nil }
	ns, _, err := bestOf(held, sweep)
	if err != nil {
		return Query{}, err
	}
	q.WarmQueryNs = ns / int64(len(sites))
	return q, nil
}
