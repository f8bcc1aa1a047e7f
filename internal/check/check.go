package check

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"wlpa/internal/analysis"
	"wlpa/internal/ctok"
	"wlpa/internal/dataflow"
)

// Severity grades a diagnostic.
type Severity int

const (
	// Warning marks a possible defect: present in some contexts or
	// mixed with benign targets.
	Warning Severity = iota
	// Error marks a defect present in every analyzed calling context.
	Error
)

func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// Diagnostic is one reported defect site.
type Diagnostic struct {
	// Check is the identifier of the checker that fired (see All).
	Check string
	// Sev is the merged severity across calling contexts.
	Sev Severity
	// Pos is the source position of the defect.
	Pos ctok.Pos
	// Proc is the procedure containing the defect.
	Proc string
	// Message describes the defect.
	Message string
	// Contexts is the number of calling contexts exhibiting the defect.
	Contexts int
	// Trace is one calling context that exhibits the defect, outermost
	// caller first (each entry names a procedure and the call site that
	// entered it).
	Trace []string
}

func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s: %s: %s [%s]", d.Pos, d.Sev, d.Message, d.Check)
	if chain := d.Chain(); chain != "" {
		s += " (in " + chain + ")"
	}
	return s
}

// Chain renders the diagnostic's context trace as a compact call chain
// ("main -> f -> g"), outermost caller first.
func (d Diagnostic) Chain() string {
	if len(d.Trace) == 0 {
		return ""
	}
	parts := make([]string, len(d.Trace))
	for i, e := range d.Trace {
		if j := strings.Index(e, " (called at "); j >= 0 {
			e = e[:j]
		}
		parts[i] = e
	}
	return strings.Join(parts, " -> ")
}

// Options configure a checker run.
type Options struct {
	// Checks selects which checkers run (identifiers from All);
	// nil or empty runs all of them.
	Checks []string
	// Passes restricts the run to the named passes (see Passes());
	// nil or empty runs all of them. Composes with Checks: a check is
	// enabled when both filters admit it.
	Passes []string
}

// verdict is one context's view of a site.
type verdict struct {
	sev Severity
	msg string
}

// site accumulates per-context verdicts for one (check, position).
type site struct {
	flagged int // contexts that reported the defect
	errors  int // contexts that reported it at Error severity
	msg     string
	trace   []string
}

type siteKey struct {
	check string
	proc  string
	pos   ctok.Pos
}

// Ctx is the state handed to checker passes: the converged analysis,
// the resolved call graph, and the MOD/REF summaries, plus the
// bookkeeping for reporting. One Ctx serves a whole run: context passes
// walk the contexts in turn, then program passes run on it.
type Ctx struct {
	// A is the converged points-to analysis.
	A *analysis.Analysis
	// ModRef holds the per-context MOD/REF summaries (see
	// analysis.ModRefTable).
	ModRef *analysis.ModRefTable
	// Edges is the resolved PTF-level call graph, deterministically
	// sorted.
	Edges []analysis.CallEdge

	enabled map[string]bool
	// frees indexes the analysis' recorded deallocations by context.
	frees map[*analysis.PTF][]analysis.FreeSite
	// ctxs counts the walked contexts per procedure.
	ctxs map[string]int
	// cur collects the current context's verdicts (merged into sites
	// at the end of each walk).
	cur    map[siteKey]verdict
	curPTF *analysis.PTF
	// prog collects program-pass diagnostics.
	prog []Diagnostic
	// reach holds each dataflow client's Gen reachability, keyed by
	// client name and computed by the first context walk that needs it.
	reach map[string]*dataflow.Reach
	// ungated walks every client with a nil Gen, pruning nothing: the
	// reference run the exactness test compares against.
	ungated bool
	// err is the first failure of the run's walks (the deadline).
	err error
}

// flow runs one dataflow client over context p. name identifies the
// client within the run and keys its reachability.
func (c *Ctx) flow(name string, cl dataflow.Client, p *analysis.PTF) {
	if c.ungated {
		cl.Gen = nil
	}
	r := c.reach[name]
	if r == nil {
		r = dataflow.NewReach(c.A, cl.Gen)
		c.reach[name] = r
	}
	eng := &dataflow.Engine{A: c.A, ModRef: c.ModRef, Client: cl, Reach: r}
	if _, err := eng.ContextRun(p); err != nil {
		c.err = err
	}
}

// Contexts returns the number of walked calling contexts of a procedure
// (program passes use it to fill Diagnostic.Contexts).
func (c *Ctx) Contexts(proc string) int { return c.ctxs[proc] }

// report records one context-local verdict, keeping the worst severity
// per site within the context.
func (c *Ctx) report(check string, pos ctok.Pos, sev Severity, msg string) {
	if !c.enabled[check] {
		return
	}
	k := siteKey{check: check, proc: c.curPTF.Proc.Name, pos: pos}
	if old, ok := c.cur[k]; ok && old.sev >= sev {
		return
	}
	c.cur[k] = verdict{sev: sev, msg: msg}
}

// reportProgram records a whole-program diagnostic (program passes
// decide severity themselves; there is no per-context merge).
func (c *Ctx) reportProgram(d Diagnostic) {
	if !c.enabled[d.Check] {
		return
	}
	c.prog = append(c.prog, d)
}

// Run executes every registered checker pass over every analyzed
// calling context and returns the merged diagnostics, deterministically
// sorted and deduplicated. A check name in opts that is not one of All
// is an error, so a typo does not silently disable checking. Run stops
// at the analysis' deadline (analysis.Analysis.Deadline) and returns
// analysis.ErrTimeout, discarding partial diagnostics.
func Run(a *analysis.Analysis, opts Options) ([]Diagnostic, error) {
	return run(a, opts, false)
}

func run(a *analysis.Analysis, opts Options, ungated bool) ([]Diagnostic, error) {
	// A pass filter narrows the check universe before the check filter
	// applies; a name unknown to either registry is an error, so a typo
	// does not silently disable checking.
	allowed := map[string]bool{}
	if len(opts.Passes) == 0 {
		for _, name := range All {
			allowed[name] = true
		}
	} else {
		byName := map[string]*Pass{}
		var names []string
		for _, pass := range Passes() {
			byName[pass.Name] = pass
			names = append(names, pass.Name)
		}
		for _, name := range opts.Passes {
			pass, ok := byName[name]
			if !ok {
				return nil, fmt.Errorf("unknown pass %q (available: %s)", name, strings.Join(names, ", "))
			}
			for _, id := range pass.Checks {
				allowed[id] = true
			}
		}
	}
	enabled := map[string]bool{}
	if len(opts.Checks) == 0 {
		for id := range allowed {
			enabled[id] = true
		}
	} else {
		known := map[string]bool{}
		for _, name := range All {
			known[name] = true
		}
		for _, name := range opts.Checks {
			if !known[name] {
				return nil, fmt.Errorf("unknown check %q (available: %s)", name, strings.Join(All, ", "))
			}
			if allowed[name] {
				enabled[name] = true
			}
		}
	}
	frees := map[*analysis.PTF][]analysis.FreeSite{}
	for _, fs := range a.FreeSites() {
		frees[fs.PTF] = append(frees[fs.PTF], fs)
	}
	c := &Ctx{
		A:       a,
		ModRef:  a.ModRef(),
		Edges:   a.CallGraphEdges(),
		enabled: enabled,
		frees:   frees,
		ctxs:    map[string]int{},
		reach:   map[string]*dataflow.Reach{},
		ungated: ungated,
	}
	var walkers, progs []*Pass
	for _, pass := range Passes() {
		active := false
		for _, id := range pass.Checks {
			if enabled[id] {
				active = true
				break
			}
		}
		if !active {
			continue
		}
		if pass.ContextWalk != nil {
			walkers = append(walkers, pass)
		}
		if pass.Program != nil {
			progs = append(progs, pass)
		}
	}
	var ptfs []*analysis.PTF
	for _, p := range a.AllPTFs() {
		if !p.ExitReached() && p != a.MainPTF() {
			// Abandoned mid-recursion: its nodes were not all
			// evaluated, so absent facts are not evidence.
			continue
		}
		ptfs = append(ptfs, p)
		c.ctxs[p.Proc.Name]++
	}
	// Walk every context in declaration order, merging its verdicts
	// into the per-site tallies as it finishes.
	sites := map[siteKey]*site{}
	deadline := a.Deadline()
	for _, p := range ptfs {
		if !deadline.IsZero() && time.Now().After(deadline) {
			return nil, analysis.ErrTimeout
		}
		c.cur = map[siteKey]verdict{}
		c.curPTF = p
		for _, pass := range walkers {
			pass.ContextWalk(c, p)
		}
		if c.err != nil {
			return nil, c.err
		}
		for k, v := range c.cur {
			s := sites[k]
			if s == nil {
				s = &site{}
				sites[k] = s
			}
			s.flagged++
			if v.sev == Error {
				s.errors++
			}
			if s.msg == "" || (v.sev == Error && s.errors == 1) {
				s.msg = v.msg
				s.trace = contextTrace(p)
			}
		}
	}
	// Program passes see the whole converged picture.
	c.cur, c.curPTF = nil, nil
	for _, pass := range progs {
		pass.Program(c)
	}
	out := make([]Diagnostic, 0, len(sites)+len(c.prog))
	for k, s := range sites {
		sev := Warning
		if n := c.ctxs[k.proc]; s.errors == n && s.flagged == n {
			sev = Error
		}
		out = append(out, Diagnostic{
			Check:    k.check,
			Sev:      sev,
			Pos:      k.pos,
			Proc:     k.proc,
			Message:  s.msg,
			Contexts: s.flagged,
			Trace:    s.trace,
		})
	}
	out = append(out, c.prog...)
	sortDiagnostics(out)
	return dedup(out), nil
}

// sortDiagnostics orders diagnostics by file, line, column, check,
// procedure, message, and context chain — a total order, so the output
// is deterministic across runs and engines.
func sortDiagnostics(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.File != b.Pos.File {
			return a.Pos.File < b.Pos.File
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		if a.Proc != b.Proc {
			return a.Proc < b.Proc
		}
		if a.Message != b.Message {
			return a.Message < b.Message
		}
		return a.Chain() < b.Chain()
	})
}

// dedup drops adjacent duplicates (same check, site, severity, and
// message) from a sorted slice.
func dedup(out []Diagnostic) []Diagnostic {
	kept := out[:0]
	for _, d := range out {
		if n := len(kept); n > 0 {
			p := kept[n-1]
			if p.Check == d.Check && p.Pos == d.Pos && p.Proc == d.Proc &&
				p.Sev == d.Sev && p.Message == d.Message {
				continue
			}
		}
		kept = append(kept, d)
	}
	return kept
}

// contextTrace renders the calling context of a PTF, outermost caller
// first.
func contextTrace(p *analysis.PTF) []string {
	var rev []string
	cur := p
	for depth := 0; depth < 64; depth++ {
		home, nd := cur.Home()
		if home == nil {
			rev = append(rev, cur.Proc.Name)
			break
		}
		rev = append(rev, fmt.Sprintf("%s (called at %s)", cur.Proc.Name, nd.Pos))
		cur = home
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
