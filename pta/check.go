package pta

import (
	"fmt"
	"io"
	"sort"

	"wlpa/internal/analysis"
	"wlpa/internal/cast"
	"wlpa/internal/cfg"
	"wlpa/internal/check"
	"wlpa/internal/memmod"
	"wlpa/internal/sem"
)

// Diagnostic is one pointer-bug report (see internal/check for the
// catalogue of checks and the context-sensitive severity rules).
type Diagnostic = check.Diagnostic

// Severity grades a Diagnostic.
type Severity = check.Severity

// Severity values: SevError means the defect shows in every analyzed
// calling context; SevWarning means it shows in some context or is
// mixed with benign targets.
const (
	SevWarning = check.Warning
	SevError   = check.Error
)

// AllChecks lists the available check identifiers for
// CheckOptions.Checks.
var AllChecks = check.All

// PassInfo describes one registered checker pass.
type PassInfo struct {
	// Name selects the pass via CheckOptions.Passes.
	Name string
	// Doc is a one-line description.
	Doc string
	// Checks lists the check identifiers the pass may report.
	Checks []string
}

// AllPasses lists the registered checker passes in registration order.
func AllPasses() []PassInfo {
	var out []PassInfo
	for _, p := range check.Passes() {
		out = append(out, PassInfo{Name: p.Name, Doc: p.Doc, Checks: append([]string(nil), p.Checks...)})
	}
	return out
}

// CheckOptions configure Result.Check.
type CheckOptions struct {
	// Checks selects which checkers run (identifiers from AllChecks);
	// nil or empty runs all of them.
	Checks []string
	// Passes restricts the run to the named passes (see AllPasses);
	// nil or empty runs all of them. Composes with Checks.
	Passes []string
}

// Check runs the pointer-bug checker suite over the analyzed program
// and returns the diagnostics sorted by source position. It is
// CheckProgram over the result's program and options: the checker does
// not read this analysis but converges its own, with null tracking on.
func (r *Result) Check(opts *CheckOptions) ([]Diagnostic, error) {
	return checkProgram(r.prog, nil, r.aopts, opts)
}

// CheckProgram runs the pointer-bug checker suite over a typechecked
// program (see Frontend) and returns the diagnostics sorted by source
// position. The checkers must tell "definitely NULL" from
// "uninitialized", so the program is analyzed with null tracking on;
// the extra pseudo-location would perturb the PTF statistics of the
// main analysis, so AnalyzeProgram keeps it out of its run, and the two
// are independent analyses. They share only the read-only program and
// library summaries, so a caller may run them at once on two
// goroutines, as the daemon does with a spare in-flight slot. The
// null-tracking analysis and the checker walks share one
// opts.Timeout budget, which starts with the analysis; exceeding it
// returns analysis.ErrTimeout and no diagnostics.
func CheckProgram(prog *sem.Program, opts *Options, copts *CheckOptions) ([]Diagnostic, error) {
	return CheckProgramPrepared(prog, nil, opts, copts)
}

// CheckProgramPrepared is CheckProgram over flow graphs the caller has
// built for prog (cfg.BuildAll of prog.Funcs); nil procs means build
// them here. The checker's analysis only reads them and is over when
// the call returns, so it may share them with a main analysis running
// at the same time, as the daemon's diagnostics misses do (see
// AnalyzeProgramPrepared for who owns them afterwards).
func CheckProgramPrepared(prog *sem.Program, procs map[*cast.FuncDecl]*cfg.Proc, opts *Options, copts *CheckOptions) ([]Diagnostic, error) {
	return checkProgram(prog, procs, analysisOptions(opts), copts)
}

// checkProgram is CheckProgramPrepared under an engine configuration:
// the one path every checker run takes.
func checkProgram(prog *sem.Program, procs map[*cast.FuncDecl]*cfg.Proc, aopts analysis.Options, copts *CheckOptions) ([]Diagnostic, error) {
	if copts == nil {
		copts = &CheckOptions{}
	}
	aopts.TrackNull = true
	aopts.CollectSolution = true
	an, err := analysis.NewPrepared(prog, procs, aopts)
	if err != nil {
		return nil, err
	}
	if err := an.Run(); err != nil {
		return nil, err
	}
	return check.Run(an, check.Options{Checks: copts.Checks, Passes: copts.Passes})
}

// ModRef returns the context-collapsed MOD and REF summary of the named
// procedure: the memory locations (rendered as block names, with +off
// and [*] stride markers) the procedure and its callees may write and
// read, including effects through pointer parameters and modeled
// library calls. ok reports whether the procedure exists.
func (r *Result) ModRef(proc string) (mod, ref []string, ok bool) {
	t := r.an.ModRef()
	m, f, ok := t.OfProc(proc)
	if !ok {
		return nil, nil, false
	}
	return renderLocNames(m), renderLocNames(f), true
}

// ModRefDump renders every analyzed procedure's MOD/REF summary, one
// line per procedure, deterministically sorted.
func (r *Result) ModRefDump() []string { return r.an.ModRef().Dump() }

// RenderJSON writes diagnostics as a JSON array.
func RenderJSON(w io.Writer, diags []Diagnostic) error { return check.RenderJSON(w, diags) }

// RenderSARIF writes diagnostics as a SARIF 2.1.0 log.
func RenderSARIF(w io.Writer, diags []Diagnostic) error { return check.RenderSARIF(w, diags) }

// Fingerprint returns the stable baseline identity of a diagnostic.
func Fingerprint(d Diagnostic) string { return check.Fingerprint(d) }

// WriteBaseline writes the diagnostics' fingerprints for later
// suppression with LoadBaseline + Suppress.
func WriteBaseline(w io.Writer, diags []Diagnostic) error { return check.WriteBaseline(w, diags) }

// LoadBaseline reads a baseline file written by WriteBaseline.
func LoadBaseline(r io.Reader) (map[string]bool, error) { return check.LoadBaseline(r) }

// Suppress filters out baselined diagnostics, returning the survivors
// and the number suppressed.
func Suppress(diags []Diagnostic, baseline map[string]bool) ([]Diagnostic, int) {
	return check.Suppress(diags, baseline)
}

func renderLocNames(vals memmod.ValueSet) []string {
	out := make([]string, 0, vals.Len())
	for _, l := range vals.Locs() {
		s := l.Base.Name
		if l.Off != 0 {
			s += fmt.Sprintf("+%d", l.Off)
		}
		if l.Stride != 0 {
			s += "[*]"
		}
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
