package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"wlpa/internal/analysis"
	"wlpa/internal/libsum"
	"wlpa/internal/sem"
	"wlpa/internal/workload"
	"wlpa/pta"
)

// measureRounds is how many timed runs each measurement gets; the
// recorded value is the fastest. A single cold run measures the
// allocator and collector warming up as much as the analysis; min-of-N
// is the same discipline `go test -bench` applies across its iterations.
const measureRounds = 5

// Report is the envelope written to BENCH_ptabench.json: provenance
// (when, which toolchain, which protocol) around one entry per suite
// program.
type Report struct {
	// Generated is the emission time in RFC 3339 (ISO-8601) form.
	Generated string `json:"generated"`
	// GoVersion is runtime.Version() of the emitting binary.
	GoVersion string `json:"go_version"`
	// Protocol names the measurement discipline, e.g. "min-of-5".
	Protocol string  `json:"protocol"`
	Entries  []Entry `json:"entries"`
}

// Entry is one suite program's record: the stages of the pipeline a
// client of the analysis pays for, side by side. Every time excludes
// the frontend (parse and typecheck).
type Entry struct {
	Name string `json:"name"`
	// NsPerOp and AllocsPerOp measure analysis.Run alone: no flow-graph
	// construction and no solution collection, the slice the paper's
	// Table 2 times. The fixpoint does not depend on CollectSolution, so
	// this is the walk a daemon miss makes before its collection pass.
	// PTFsPerProc is Table 2's PTF column.
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp uint64  `json:"allocs_per_op"`
	PTFsPerProc float64 `json:"ptfs_per_proc"`
	// WholeProgramNs times pta.AnalyzeProgram: flow graphs, fixpoint
	// and collection, what any exhaustive consumer pays before it can
	// answer anything.
	WholeProgramNs int64 `json:"whole_program_ns"`
	// SnapshotNs times Result.Snapshot(nil) and Encode, the stage a
	// wlpad miss runs after the analysis (checkers excluded), on a
	// result converged untimed in the same round. SnapshotBytes is the
	// encoded size.
	SnapshotNs    int64 `json:"snapshot_ns"`
	SnapshotBytes int   `json:"snapshot_bytes"`
	// RetainedBytes is the live heap one converged result holds when
	// kept as a wlpad miss keeps it: snapshotted with diagnostics and
	// wrapped as a warm-edit baseline (program, flow graphs and
	// analysis). It is the smallest of the rounds, each on a fresh
	// program, read between forced collections, and depends on the Go
	// version's heap layout.
	RetainedBytes int64 `json:"retained_bytes"`
	Edit          Edit  `json:"edit"`
	Query         Query `json:"query"`
}

// WriteJSON measures every suite program and writes the report to path
// as indented JSON.
func WriteJSON(path string) error {
	rep, err := newReport(workload.Suite())
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// newReport measures each benchmark into one report.
func newReport(benchmarks []workload.Benchmark) (Report, error) {
	rep := Report{
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		Protocol:  fmt.Sprintf("min-of-%d", measureRounds),
	}
	for _, b := range benchmarks {
		e, err := measure(b)
		if err != nil {
			return Report{}, err
		}
		rep.Entries = append(rep.Entries, e)
	}
	return rep, nil
}

// measure produces one program's entry.
func measure(b workload.Benchmark) (Entry, error) {
	e := Entry{Name: b.Name}
	ns, allocs, st, err := measureAnalysis(b)
	if err != nil {
		return Entry{}, err
	}
	e.NsPerOp, e.AllocsPerOp, e.PTFsPerProc = ns, allocs, st.AvgPTFs()

	// A fresh program per round keeps intern-table reuse out of the
	// timing.
	if e.WholeProgramNs, _, err = bestOf(fresh(b.Name, b.Source), analyze); err != nil {
		return Entry{}, fmt.Errorf("%s: whole-program: %w", b.Name, err)
	}
	// A build interns the location sets it reads and fills the MOD/REF
	// table, so a second build on one result would time a warmer
	// result than a daemon's miss has.
	converged := func() (*pta.Result, error) {
		prog, err := prepare(b.Name, b.Source)
		if err != nil {
			return nil, err
		}
		return pta.AnalyzeProgram(prog, nil)
	}
	if e.SnapshotNs, _, err = bestOf(converged, func(r *pta.Result) error {
		snap, err := r.Snapshot(nil)
		if err != nil {
			return err
		}
		data, err := snap.Encode()
		e.SnapshotBytes = len(data)
		return err
	}); err != nil {
		return Entry{}, fmt.Errorf("%s: snapshot: %w", b.Name, err)
	}
	if e.RetainedBytes, err = measureRetained(b); err != nil {
		return Entry{}, fmt.Errorf("%s: retained: %w", b.Name, err)
	}
	if e.Edit, err = measureEdit(b); err != nil {
		return Entry{}, err
	}
	if e.Query, err = measureQuery(b); err != nil {
		return Entry{}, err
	}
	if e.Query.WarmQueryNs > 0 {
		e.Query.Speedup = float64(e.WholeProgramNs) / float64(e.Query.WarmQueryNs)
	}
	return e, nil
}

// measureAnalysis times Table 2's slice of one program, analysis.Run
// over flow graphs built beforehand, and returns the fastest round's
// nanoseconds and allocation count with the run's statistics.
func measureAnalysis(b workload.Benchmark) (int64, uint64, analysis.Stats, error) {
	prog, err := prepare(b.Name, b.Source)
	if err != nil {
		return 0, 0, analysis.Stats{}, err
	}
	opts := analysis.Options{Lib: libsum.Summaries()}
	var st analysis.Stats
	ns, allocs, err := bestOf(
		func() (*analysis.Analysis, error) { return analysis.New(prog, opts) },
		func(an *analysis.Analysis) error {
			if err := an.Run(); err != nil {
				return fmt.Errorf("%s: analysis: %w", b.Name, err)
			}
			st = an.Stats()
			return nil
		})
	return ns, allocs, st, err
}

// bestOf runs measureRounds rounds and returns the fastest round's
// wall-clock nanoseconds and heap allocation count. A round calls
// setup, untimed, and then run on what setup built, under the clock. A
// forced collection precedes the clock so the timed region pays only
// for collections its own allocation provokes.
func bestOf[S any](setup func() (S, error), run func(S) error) (int64, uint64, error) {
	var ns int64
	var allocs uint64
	for round := 0; round < measureRounds; round++ {
		s, err := setup()
		if err != nil {
			return 0, 0, err
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		err = run(s)
		elapsed := time.Since(start).Nanoseconds()
		runtime.ReadMemStats(&after)
		if err != nil {
			return 0, 0, err
		}
		if round == 0 || elapsed < ns {
			ns, allocs = elapsed, after.Mallocs-before.Mallocs
		}
	}
	return ns, allocs, nil
}

// measureRetained returns the smallest live heap, over measureRounds
// rounds, that one program's kept result adds to the process.
func measureRetained(b workload.Benchmark) (int64, error) {
	var best int64
	for round := 0; round < measureRounds; round++ {
		before := liveHeap()
		bl, err := keptBaseline(b)
		if err != nil {
			return 0, err
		}
		n := liveHeap() - before
		runtime.KeepAlive(bl)
		if round == 0 || n < best {
			best = n
		}
	}
	return best, nil
}

// keptBaseline analyzes a fresh program and keeps the result as a wlpad
// miss does: snapshotted with diagnostics, then wrapped as a baseline.
func keptBaseline(b workload.Benchmark) (*pta.Baseline, error) {
	prog, err := prepare(b.Name, b.Source)
	if err != nil {
		return nil, err
	}
	res, err := pta.AnalyzeProgram(prog, nil)
	if err != nil {
		return nil, err
	}
	snap, err := res.Snapshot(&pta.SnapshotOptions{Diagnostics: true})
	if err != nil {
		return nil, err
	}
	if _, err := snap.Encode(); err != nil {
		return nil, err
	}
	return pta.NewBaseline(res, nil)
}

// liveHeap returns the live heap after a forced collection.
func liveHeap() int64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// fresh is a bestOf setup that runs the frontend over src again for
// every round.
func fresh(name, src string) func() (*sem.Program, error) {
	return func() (*sem.Program, error) { return prepare(name, src) }
}

// analyze is a bestOf run of the whole-program analysis.
func analyze(prog *sem.Program) error {
	_, err := pta.AnalyzeProgram(prog, nil)
	return err
}
