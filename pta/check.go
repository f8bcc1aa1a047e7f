package pta

import (
	"fmt"
	"io"
	"sort"

	"wlpa/internal/analysis"
	"wlpa/internal/check"
	"wlpa/internal/memmod"
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
// and returns the diagnostics sorted by source position. The analysis
// is re-run with null tracking enabled (the checkers must distinguish
// "definitely NULL" from "uninitialized"; the extra pseudo-location
// would perturb the PTF statistics of the main analysis, so it is kept
// out of Analyze's run). The re-analysis and the checker walks share one
// Options.Timeout budget, which starts with the re-analysis; exceeding
// it returns analysis.ErrTimeout and no diagnostics.
func (r *Result) Check(opts *CheckOptions) ([]Diagnostic, error) {
	if opts == nil {
		opts = &CheckOptions{}
	}
	aopts := r.aopts
	aopts.TrackNull = true
	aopts.CollectSolution = true
	an, err := analysis.New(r.prog, aopts)
	if err != nil {
		return nil, err
	}
	if err := an.Run(); err != nil {
		return nil, err
	}
	return check.Run(an, check.Options{Checks: opts.Checks, Passes: opts.Passes})
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
