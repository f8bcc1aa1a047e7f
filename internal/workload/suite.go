package workload

import (
	"embed"
	"strings"
)

//go:embed testdata/*.c
var suiteFS embed.FS

// Benchmark describes one program of the embedded benchmark suite, the
// stand-in for the paper's Table 2 programs (see DESIGN.md §4 for the
// substitution rationale).
type Benchmark struct {
	Name   string
	Source string

	// Paper-reported reference values for Table 2 (lines, procedures,
	// analysis seconds on a 1995 DECstation 5000/260, avg PTFs/proc).
	PaperLines   int
	PaperProcs   int
	PaperSeconds float64
	PaperPTFs    float64

	// Runnable marks programs the interpreter can execute end to end
	// (used for soundness checks and loop profiling).
	Runnable bool
}

// paperTable2 holds the reference numbers from the paper, in its order.
var paperTable2 = []Benchmark{
	{Name: "allroots", PaperLines: 188, PaperProcs: 6, PaperSeconds: 0.18, PaperPTFs: 1.00, Runnable: true},
	{Name: "alvinn", PaperLines: 272, PaperProcs: 8, PaperSeconds: 0.22, PaperPTFs: 1.00, Runnable: true},
	{Name: "grep", PaperLines: 430, PaperProcs: 9, PaperSeconds: 0.65, PaperPTFs: 1.00, Runnable: true},
	{Name: "diff", PaperLines: 668, PaperProcs: 23, PaperSeconds: 2.13, PaperPTFs: 1.30, Runnable: true},
	{Name: "lex315", PaperLines: 776, PaperProcs: 16, PaperSeconds: 0.93, PaperPTFs: 1.00, Runnable: true},
	{Name: "compress", PaperLines: 1503, PaperProcs: 14, PaperSeconds: 1.45, PaperPTFs: 1.00, Runnable: true},
	{Name: "loader", PaperLines: 1539, PaperProcs: 29, PaperSeconds: 1.70, PaperPTFs: 1.03, Runnable: true},
	{Name: "football", PaperLines: 2354, PaperProcs: 57, PaperSeconds: 6.70, PaperPTFs: 1.02, Runnable: true},
	{Name: "compiler", PaperLines: 2360, PaperProcs: 37, PaperSeconds: 7.57, PaperPTFs: 1.14, Runnable: true},
	{Name: "assembler", PaperLines: 3361, PaperProcs: 51, PaperSeconds: 5.82, PaperPTFs: 1.08, Runnable: true},
	{Name: "eqntott", PaperLines: 3454, PaperProcs: 60, PaperSeconds: 9.88, PaperPTFs: 1.33, Runnable: true},
	{Name: "ear", PaperLines: 4284, PaperProcs: 68, PaperSeconds: 2.99, PaperPTFs: 1.13, Runnable: true},
	{Name: "simulator", PaperLines: 4663, PaperProcs: 98, PaperSeconds: 15.54, PaperPTFs: 1.39, Runnable: true},
}

// Suite returns the available benchmarks in the paper's (size) order.
// Programs without a source file yet are omitted.
func Suite() []Benchmark {
	var out []Benchmark
	for _, b := range paperTable2 {
		data, err := suiteFS.ReadFile("testdata/" + b.Name + ".c")
		if err != nil {
			continue
		}
		b.Source = string(data)
		out = append(out, b)
	}
	return out
}

// BugFixtures returns the seeded-bug programs (testdata/bug_*.c),
// keyed by fixture name (file name without the bug_ prefix and .c
// suffix). Each seeds exactly the defect its name says, for validating
// the checkers in internal/check; none is part of the benchmark suite.
func BugFixtures() map[string]string {
	out := map[string]string{}
	entries, err := suiteFS.ReadDir("testdata")
	if err != nil {
		return out
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "bug_") || !strings.HasSuffix(name, ".c") {
			continue
		}
		data, err := suiteFS.ReadFile("testdata/" + name)
		if err != nil {
			continue
		}
		out[strings.TrimSuffix(strings.TrimPrefix(name, "bug_"), ".c")] = string(data)
	}
	return out
}

// ByName returns the named benchmark (and whether it exists).
func ByName(name string) (Benchmark, bool) {
	for _, b := range Suite() {
		if b.Name == name {
			return b, true
		}
	}
	return Benchmark{}, false
}

// CountLines returns the number of source lines (as the paper counts
// them: physical lines).
func CountLines(src string) int {
	return len(strings.Split(strings.TrimRight(src, "\n"), "\n"))
}
