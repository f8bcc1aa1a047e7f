package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"wlpa/internal/analysis"
	"wlpa/internal/cparse"
	"wlpa/internal/libsum"
	"wlpa/internal/sem"
	"wlpa/internal/workload"
)

// measureRounds is how many timed runs each workload gets; the recorded
// entry is the fastest. A single cold run measures the allocator and
// collector warming up as much as the analysis; min-of-N is the same
// discipline `go test -bench` applies across its iterations.
const measureRounds = 5

// JSONEntry is one workload's measurement in the machine-readable
// benchmark emission (BENCH_ptabench.json).
type JSONEntry struct {
	Name        string  `json:"name"`
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp uint64  `json:"allocs_per_op"`
	PTFsPerProc float64 `json:"ptfs_per_proc"`
	// Engine identifies the evaluation engine ("worklist").
	Engine string `json:"engine"`
}

// Report is the envelope written to BENCH_ptabench.json: provenance
// (when, which toolchain, which protocol) around the entries.
type Report struct {
	// Generated is the emission time in RFC 3339 (ISO-8601) form.
	Generated string `json:"generated"`
	// GoVersion is runtime.Version() of the emitting binary.
	GoVersion string `json:"go_version"`
	// Protocol names the measurement discipline, e.g. "min-of-3".
	Protocol string      `json:"protocol"`
	Entries  []JSONEntry `json:"entries"`
}

// prepare runs the frontend once for a workload (shared across rounds —
// only the analysis phase is measured).
func prepare(name, src string) (*sem.Program, error) {
	f, err := cparse.ParseSource(name, src)
	if err != nil {
		return nil, fmt.Errorf("%s: parse: %w", name, err)
	}
	prog, err := sem.Check(f)
	if err != nil {
		return nil, fmt.Errorf("%s: sem: %w", name, err)
	}
	return prog, nil
}

// timedRun builds a fresh analysis over prog and times Run alone,
// returning elapsed nanoseconds, the heap allocation count of the timed
// region, and the run's stats. A forced collection precedes the timer so
// the timed region pays only for collections its own allocation
// provokes.
func timedRun(name string, prog *sem.Program, opts analysis.Options) (int64, uint64, analysis.Stats, error) {
	an, err := analysis.New(prog, opts)
	if err != nil {
		return 0, 0, analysis.Stats{}, err
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	if err := an.Run(); err != nil {
		return 0, 0, analysis.Stats{}, fmt.Errorf("%s: analysis: %w", name, err)
	}
	elapsed := time.Since(start).Nanoseconds()
	runtime.ReadMemStats(&after)
	return elapsed, after.Mallocs - before.Mallocs, an.Stats(), nil
}

// MeasureJSON analyzes every suite workload and reports wall-clock
// nanoseconds, heap allocations (mallocs) and PTFs per procedure for the
// analysis phase only (frontend excluded, matching RunTable2One). Each
// workload runs measureRounds times and the fastest round is recorded.
func MeasureJSON() ([]JSONEntry, error) {
	entries := make([]JSONEntry, 0, len(workload.Suite()))
	opts := analysis.Options{Lib: libsum.Summaries()}
	for _, b := range workload.Suite() {
		prog, err := prepare(b.Name, b.Source)
		if err != nil {
			return nil, err
		}
		var best JSONEntry
		for round := 0; round < measureRounds; round++ {
			ns, allocs, st, err := timedRun(b.Name, prog, opts)
			if err != nil {
				return nil, err
			}
			if round > 0 && ns >= best.NsPerOp {
				continue
			}
			best = JSONEntry{
				Name:        b.Name,
				NsPerOp:     ns,
				AllocsPerOp: allocs,
				PTFsPerProc: st.AvgPTFs(),
				Engine:      "worklist",
			}
		}
		entries = append(entries, best)
	}
	return entries, nil
}

func writeIndented(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func protocolName() string {
	return fmt.Sprintf("min-of-%d", measureRounds)
}

// WriteJSON measures the suite and writes the report envelope to path
// as indented JSON.
func WriteJSON(path string) error {
	entries, err := MeasureJSON()
	if err != nil {
		return err
	}
	return writeIndented(path, Report{
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		Protocol:  protocolName(),
		Entries:   entries,
	})
}
