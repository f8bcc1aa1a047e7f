package check

import "wlpa/internal/analysis"

// RunUngated is Run with every dataflow client's Gen set to nil, so the
// engine prunes nothing: the reference the exactness test compares the
// pruned run against.
func RunUngated(a *analysis.Analysis, opts Options) ([]Diagnostic, error) {
	return run(a, opts, true)
}
