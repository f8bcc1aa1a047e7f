package difftest

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"wlpa/internal/analysis"
	"wlpa/internal/baseline/andersen"
	"wlpa/internal/baseline/steensgaard"
	"wlpa/internal/cast"
	"wlpa/internal/cfg"
	"wlpa/internal/check"
	"wlpa/internal/cparse"
	"wlpa/internal/interp"
	"wlpa/internal/libsum"
	"wlpa/internal/memmod"
	"wlpa/internal/sem"
	"wlpa/internal/workload"
)

// Failure is one property violation found by the oracle. Stage names
// the broken property; Src carries the offending program so a fuzz or
// test harness can print and reduce it.
type Failure struct {
	Stage  string
	Name   string
	Detail string
	Src    string
}

func (f *Failure) Error() string {
	return fmt.Sprintf("%s: %s: %s", f.Name, f.Stage, f.Detail)
}

// Stages reported by CheckProgram.
const (
	StageFrontend    = "frontend"            // generated program failed to parse or type-check
	StageEngine      = "engine-error"        // an engine's Run returned an error
	StageEquivalence = "equivalence"         // engines disagree on PTFs/solution/diagnostics
	StageInterp      = "interp"              // interpreter hit a runtime fault (generator bug)
	StageInterpFuel  = "interp-fuel"         // interpreter ran out of fuel (runaway program)
	StageSoundness   = "soundness"           // dynamic fact missing from the PTF solution
	StageCheckClean  = "check-clean"         // Error-severity diagnostic on a well-defined program
	StageLeak        = "leak-oracle"         // static leak checker disagrees with observed leaks
	StageTypestate   = "typestate-oracle"    // static FILE-protocol checker disagrees with observed violations
	StageTaint       = "taint-oracle"        // a getenv program's system() call carries no taintflow report
	StageQuery       = "query-oracle"        // query layer answer differs from the uncached idom-chain reference
	StageBaseline    = "baseline"            // a baseline analysis returned an error
	StageAndersen    = "lattice-andersen"    // dynamic fact missing from Andersen
	StageSteensgaard = "lattice-steensgaard" // PTF or Andersen edge missing from Steensgaard
)

// Options configure one oracle run.
type Options struct {
	// MaxSteps is the interpreter fuel budget (default 20M cost
	// units). Exhausting it is a property failure (StageInterpFuel):
	// the generator must only produce terminating programs, and the
	// budget guarantees the oracle itself can never hang.
	MaxSteps int64
	// SkipFullPass omits the quadratic full-pass engine (used for
	// large benchmark inputs where the root equivalence tests already
	// cover it).
	SkipFullPass bool
	// SkipBaselines omits the Andersen/Steensgaard lattice layers.
	SkipBaselines bool
	// SkipUnifyLattice omits the two Steensgaard-superset layers while
	// keeping dynamic ⊆ Andersen. Benchmark programs use the full C
	// surface (function-pointer tables, string library calls) where the
	// independently-written baselines are not provably nested; the
	// generated-program grammar is exactly the surface where they are.
	SkipUnifyLattice bool
	// SkipInterp omits execution (for programs without a main or with
	// unmodeled inputs).
	SkipInterp bool

	// dropSolutionBlock, when non-empty, removes every fact whose
	// location matches the named block from the PTF solution before
	// the soundness comparison. It deliberately makes the oracle see
	// an unsound analysis — the harness's own tests use it to prove a
	// seeded unsoundness is caught and reduced (mutation testing the
	// oracle), without ever shipping a broken analysis.
	dropSolutionBlock string
	// queryRef, when not refExact, deliberately breaks the query
	// rung's reference, so the harness's own tests can prove the rung
	// catches a wrong answer.
	queryRef refMutation
}

func (o Options) maxSteps() int64 {
	if o.MaxSteps == 0 {
		return 20_000_000
	}
	return o.MaxSteps
}

// Frontend parses and type-checks src.
func Frontend(name, src string) (*sem.Program, error) {
	file, err := cparse.ParseSource(name, src)
	if err != nil {
		return nil, err
	}
	return sem.Check(file)
}

// engine is one solver configuration under cross-check.
type engine struct {
	name  string
	force bool
}

// fingerprint is everything an engine run must agree on, rendered
// deterministically.
type fingerprint struct {
	ptfs     int
	procs    int
	perProc  string
	solution string
	diags    string
	diagList []check.Diagnostic
	an       *analysis.Analysis
}

func runEngine(prog *sem.Program, e engine) (*fingerprint, error) {
	an, err := analysis.New(prog, analysis.Options{
		Lib:             libsum.Summaries(),
		LibEffects:      libsum.Effects(),
		CollectSolution: true,
		TrackNull:       true,
		ForceFullPasses: e.force,
	})
	if err != nil {
		return nil, err
	}
	if err := an.Run(); err != nil {
		return nil, err
	}
	st := an.Stats()
	diags, err := check.Run(an, check.Options{})
	if err != nil {
		return nil, err
	}
	return &fingerprint{
		ptfs:     st.PTFs,
		procs:    st.Procedures,
		perProc:  renderPerProc(st.PTFsPerProc),
		solution: SolutionDump(an),
		diags:    renderDiags(diags),
		diagList: diags,
		an:       an,
	}, nil
}

// refMutation selects the query rung's reference: the exact one, or a
// deliberately broken one for the oracle's own mutation tests.
type refMutation int

const (
	refExact     refMutation = iota
	refUnionAll              // every dominating record, no barrier
	refNoBarrier             // nearest records, no barrier
)

// contentsRef is the query rung's uncached reference for
// analysis.ContentsAt (out false) and ContentsAfter (out true). The
// nodes that dominate nd are its immediate-dominator chain, so for each
// location overlapping v it takes the first record met going up the
// chain (records at nd itself only for out). It stops after the first
// strong record of a precise v strictly above nd: FindStrongUpdate's
// barrier, which hides older records from every candidate.
func contentsRef(p *analysis.PTF, v memmod.LocSet, nd *cfg.Node, out bool, m refMutation) memmod.ValueSet {
	v = v.Resolve()
	var vals memmod.ValueSet
	if v.Base.Kind == memmod.NullBlock {
		return vals
	}
	cands := []memmod.LocSet{v}
	for _, l := range v.Base.PtrLocs() {
		if l = l.Resolve(); l.Overlaps(v) && !slices.Contains(cands, l) {
			cands = append(cands, l)
		}
	}
	found := make([]bool, len(cands))
	for n := nd; n != nil; n = n.Idom {
		if n == nd && !out {
			continue
		}
		for i, l := range cands {
			if r := p.Pts.RecordAt(l, n); r != nil && (!found[i] || m == refUnionAll) {
				vals.AddAll(r.Vals.Resolved())
				found[i] = true
			}
		}
		if m == refExact && n != nd && v.Precise() {
			if r := p.Pts.RecordAt(v, n); r != nil && r.Strong {
				break
			}
		}
	}
	return vals
}

// queryAgrees checks the query layer (analysis.ContentsAt and
// ContentsAfter, with their cached ptset lookups) against contentsRef
// over one converged analysis: for every context, up to maxLocs of its
// recorded locations (0: all of them) plus their block-level
// widenings, at every nodeStride-th flow node, in both IN and OUT
// modes. Returns "" when every answer matches, else the first
// divergence.
func queryAgrees(an *analysis.Analysis, maxLocs, nodeStride int, m refMutation) string {
	for _, p := range an.AllPTFs() {
		var locs []memmod.LocSet
		seen := map[memmod.LocSet]bool{}
		for _, l := range p.Pts.Locations() {
			if maxLocs > 0 && len(locs) >= maxLocs {
				break
			}
			for _, c := range []memmod.LocSet{l.Resolve(), l.Unknown().Resolve()} {
				if !seen[c] {
					seen[c] = true
					locs = append(locs, c)
				}
			}
		}
		for ni := 0; ni < len(p.Proc.Nodes); ni += nodeStride {
			nd := p.Proc.Nodes[ni]
			for _, l := range locs {
				if got, want := an.ContentsAt(p, l, nd), contentsRef(p, l, nd, false, m); !got.Equal(want) {
					return fmt.Sprintf("%s node %d loc %v (in): query layer %v, reference %v",
						p.Proc.Name, nd.ID, l, got, want)
				}
				if got, want := an.ContentsAfter(p, l, nd), contentsRef(p, l, nd, true, m); !got.Equal(want) {
					return fmt.Sprintf("%s node %d loc %v (out): query layer %v, reference %v",
						p.Proc.Name, nd.ID, l, got, want)
				}
			}
		}
	}
	return ""
}

func renderPerProc(m map[string]int) string {
	lines := make([]string, 0, len(m))
	for k, v := range m {
		lines = append(lines, fmt.Sprintf("%s=%d", k, v))
	}
	sort.Strings(lines)
	return strings.Join(lines, " ")
}

// SolutionDump renders the collapsed solution deterministically: one
// line per location with sorted members, lines themselves sorted.
func SolutionDump(an *analysis.Analysis) string {
	sol := an.Solution()
	var lines []string
	for _, loc := range sol.Locations() {
		var members []string
		for _, v := range sol.PointsTo(loc).Locs() {
			members = append(members, v.String())
		}
		sort.Strings(members)
		lines = append(lines, loc.String()+" -> {"+strings.Join(members, ", ")+"}")
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func renderDiags(diags []check.Diagnostic) string {
	lines := make([]string, 0, len(diags))
	for _, d := range diags {
		lines = append(lines, d.String())
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// firstDiff locates the first divergent line between two dumps.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return "a: " + al[i] + "\nb: " + bl[i]
		}
	}
	return fmt.Sprintf("(line-count mismatch: %d vs %d)", len(al), len(bl))
}

// CheckProgram runs the full oracle lattice over one program and
// returns nil iff every property holds. Any non-nil error is a
// *Failure describing the first broken property.
func CheckProgram(name, src string, opt Options) error {
	fail := func(stage, format string, args ...any) error {
		return &Failure{Stage: stage, Name: name, Detail: fmt.Sprintf(format, args...), Src: src}
	}

	prog, err := Frontend(name, src)
	if err != nil {
		return fail(StageFrontend, "%v", err)
	}

	// 1. Engine equivalence: full-pass vs worklist must be
	// bit-identical in PTF counts, collapsed solution, diagnostics.
	engines := []engine{{name: "worklist"}}
	if !opt.SkipFullPass {
		engines = append(engines, engine{name: "fullpass", force: true})
	}
	var base *fingerprint
	fps := make([]*fingerprint, 0, len(engines))
	for i, e := range engines {
		fp, err := runEngine(prog, e)
		if err != nil {
			return fail(StageEngine, "%s: %v", e.name, err)
		}
		fps = append(fps, fp)
		if i == 0 {
			base = fp
			continue
		}
		if fp.ptfs != base.ptfs || fp.procs != base.procs || fp.perProc != base.perProc {
			return fail(StageEquivalence, "%s vs %s: PTFs %d/%d procs %d/%d perproc %q vs %q",
				e.name, engines[0].name, fp.ptfs, base.ptfs, fp.procs, base.procs, fp.perProc, base.perProc)
		}
		if fp.solution != base.solution {
			return fail(StageEquivalence, "%s vs %s: solutions differ; first divergence:\n%s",
				e.name, engines[0].name, firstDiff(fp.solution, base.solution))
		}
		if fp.diags != base.diags {
			return fail(StageEquivalence, "%s vs %s: diagnostics differ:\n-- %s --\n%s\n-- %s --\n%s",
				e.name, engines[0].name, e.name, fp.diags, engines[0].name, base.diags)
		}
	}

	// 1b. Query layer: every sampled contents query, on every engine's
	// converged state, must answer exactly what the uncached
	// idom-chain reference answers: 48 locations per context, every
	// third node, IN and OUT.
	for i, e := range engines {
		if detail := queryAgrees(fps[i].an, 48, 3, opt.queryRef); detail != "" {
			return fail(StageQuery, "%s: %s", e.name, detail)
		}
	}

	// 2. Checker cleanliness: the program is well-defined (it runs to
	// completion below), so Error-severity diagnostics are false
	// positives. Warnings ("may" defects) are expected and allowed.
	// Some checks are exempt here because the behavior they flag is
	// well-defined C that can coexist with a clean run: leaking memory
	// ("leak") or FILE handles ("fileleak"), and passing untrusted data
	// to a command or format sink ("taintflow"/"taintfmt" — a security
	// property, not a definedness one). The leak and typestate rungs
	// below hold the resource reports to the interpreter's observations
	// instead.
	cleanExempt := map[string]bool{"leak": true, "fileleak": true, "taintflow": true, "taintfmt": true}
	for _, d := range base.diagList {
		if d.Sev == check.Error && !cleanExempt[d.Check] {
			return fail(StageCheckClean, "error-severity diagnostic on well-defined program: %v (trace %v)", d, d.Trace)
		}
	}

	// 3. Interpreter soundness: every dynamic points-to fact must be
	// covered by the static solution.
	var dynFacts []interp.DynFact
	var interpRes *interp.Result
	if !opt.SkipInterp {
		in := interp.New(prog, interp.Options{RecordPointsTo: true, MaxSteps: opt.maxSteps()})
		res, err := in.Run()
		if err != nil {
			if interp.IsFuelExhausted(err) {
				return fail(StageInterpFuel, "%v (non-terminating or runaway generated program)", err)
			}
			return fail(StageInterp, "%v", err)
		}
		interpRes = res
		dynFacts = res.Facts
		sol := base.an.Solution()
		keys := sol.Locations()
		if opt.dropSolutionBlock != "" {
			keys = dropBlock(keys, opt.dropSolutionBlock)
		}
		for _, f := range dynFacts {
			if !factCovered(sol, keys, f) {
				return fail(StageSoundness, "dynamic fact (%s+%d) -> (%s+%d) not in static solution",
					f.Block, f.Off, f.Target, f.TOff)
			}
		}
	}

	// 3b. Leak rung: the static leak checker against the interpreter's
	// heap census. Every dynamically leaked object must be reported at
	// its allocation site (at any severity — missing it entirely is a
	// soundness hole), and every Error-severity leak report must be
	// confirmed: either the run leaked that site, or the run never
	// allocated there (a definite leak conditional on the allocation
	// executing). An Error on a site that allocated and did not leak is
	// a false positive.
	if interpRes != nil {
		if err := checkLeakRung(base.diagList, interpRes, fail); err != nil {
			return err
		}
	}

	// 3c. Typestate rung: the static FILE-protocol checkers against the
	// interpreter's stream census. Every dynamically observed protocol
	// violation (use or fclose of a closed stream) must be reported at
	// its site by useafterclose/doubleclose (at any severity), and every
	// handle still open at exit must be reported at its fopen site by
	// fileleak. In the reverse direction an Error-severity fileleak at a
	// site whose handles were all opened and closed is a false positive
	// (mirroring the leak rung; an Error at a site that never opened is a
	// definite leak conditional on the open executing, which is allowed).
	if interpRes != nil {
		if err := checkTypestateRung(base.diagList, interpRes, fail); err != nil {
			return err
		}
	}

	// 3d. Taint rung: completeness of the taint checker. The
	// interpreter models getenv as NULL, so no run observes a flow, and
	// the cleanliness stage exempts taintflow; without this rung a flow
	// pruned away would go unnoticed. Generated programs only hand
	// getenv's result to system(), so in a program that calls getenv
	// every system() call in a procedure the checker walks must carry
	// a taintflow report on its line.
	if err := checkTaintRung(base.an, base.diagList, fail); err != nil {
		return err
	}

	// 4. Precision lattice at block granularity:
	//
	//	dynamic  ⊆ PTF solution     (checked in step 3)
	//	dynamic  ⊆ Andersen         (baseline soundness)
	//	PTF      ⊆ Steensgaard      (unification over-approximates the collapse)
	//	Andersen ⊆ Steensgaard      (inclusion refines unification)
	//
	// The collapsed PTF solution is deliberately NOT required to be a
	// subset of Andersen: query-time resolution unions each extended
	// parameter's bindings over every context and resolves them
	// transitively through other procedures' parameters, which loses
	// context correlations (a binding like "f0's p2-param = f1's 1_a"
	// only held in the context where a↦p2) and can therefore exceed
	// Andersen's direct inclusion on concrete blocks. Steensgaard still
	// bounds it: every link in a concretization chain is an actual
	// assignment, and unification collapses assignment chains wholesale.
	// See TestCollapsedSolutionExceedsAndersen for a pinned reproducer.
	if !opt.SkipBaselines {
		and, err := andersen.Analyze(prog)
		if err != nil {
			return fail(StageBaseline, "andersen: %v", err)
		}
		andE := edgeSet(and.Edges())
		for _, f := range dynFacts {
			if e, ok := dynEdge(f); ok && !andE[e] {
				return fail(StageAndersen, "dynamic fact (%s+%d) -> (%s+%d) not in Andersen solution",
					f.Block, f.Off, f.Target, f.TOff)
			}
		}
		if !opt.SkipUnifyLattice {
			st, err := steensgaard.Analyze(prog)
			if err != nil {
				return fail(StageBaseline, "steensgaard: %v", err)
			}
			stE := edgeSet(st.Edges())
			if miss := subsetViolation(solutionEdges(base.an), stE); miss != "" {
				return fail(StageSteensgaard, "PTF edge %s not in Steensgaard solution", miss)
			}
			if miss := subsetViolation(andE, stE); miss != "" {
				return fail(StageSteensgaard, "Andersen edge %s not in Steensgaard solution", miss)
			}
		}
	}
	return nil
}

// checkLeakRung cross-checks the static leak diagnostics against the
// interpreter's allocation census (see CheckProgram step 3b).
func checkLeakRung(diags []check.Diagnostic, res *interp.Result, fail func(stage, format string, args ...any) error) error {
	static := map[string]check.Severity{}
	for _, d := range diags {
		if d.Check != "leak" {
			continue
		}
		pos := d.Pos.String()
		if sev, ok := static[pos]; !ok || d.Sev > sev {
			static[pos] = d.Sev
		}
	}
	allocated := map[string]bool{}
	for _, site := range res.AllocSites {
		allocated[site] = true
	}
	for _, site := range res.LeakSites {
		if _, ok := static[site]; !ok {
			return fail(StageLeak, "object allocated at %s leaked at run time but the leak checker is silent about the site", site)
		}
	}
	leaked := map[string]bool{}
	for _, site := range res.LeakSites {
		leaked[site] = true
	}
	for pos, sev := range static {
		if sev == check.Error && allocated[pos] && !leaked[pos] {
			return fail(StageLeak, "leak checker reports a definite leak at %s, but the run allocated there and did not leak", pos)
		}
	}
	return nil
}

// checkTypestateRung cross-checks the static FILE-protocol diagnostics
// against the interpreter's stream census (see CheckProgram step 3c).
func checkTypestateRung(diags []check.Diagnostic, res *interp.Result, fail func(stage, format string, args ...any) error) error {
	misuse := map[string]bool{}         // useafterclose/doubleclose positions, any severity
	leak := map[string]check.Severity{} // fileleak fopen sites, worst severity
	for _, d := range diags {
		switch d.Check {
		case "useafterclose", "doubleclose":
			misuse[d.Pos.String()] = true
		case "fileleak":
			pos := d.Pos.String()
			if sev, ok := leak[pos]; !ok || d.Sev > sev {
				leak[pos] = d.Sev
			}
		}
	}
	for _, pos := range res.FileViolations {
		if !misuse[pos] {
			return fail(StageTypestate, "stream operation on a closed FILE observed at %s but the typestate checker is silent about the site", pos)
		}
	}
	stillOpen := map[string]bool{}
	for _, site := range res.OpenAtExit {
		stillOpen[site] = true
		if _, ok := leak[site]; !ok {
			return fail(StageTypestate, "FILE opened at %s was still open at exit but fileleak is silent about the site", site)
		}
	}
	opened := map[string]bool{}
	for _, site := range res.OpenSites {
		opened[site] = true
	}
	for pos, sev := range leak {
		if sev == check.Error && opened[pos] && !stillOpen[pos] {
			return fail(StageTypestate, "fileleak reports a definite leak at %s, but the run opened there and closed every handle", pos)
		}
	}
	return nil
}

// checkTaintRung requires a taintflow report at every system() call of
// a procedure with a walked context, in a program whose walked
// procedures call getenv (see CheckProgram step 3d).
func checkTaintRung(an *analysis.Analysis, diags []check.Diagnostic, fail func(stage, format string, args ...any) error) error {
	type line struct {
		file string
		n    int
	}
	reported := map[line]bool{}
	for _, d := range diags {
		if d.Check == "taintflow" {
			reported[line{d.Pos.File, d.Pos.Line}] = true
		}
	}
	var sinks []*cfg.Node
	getenv := false
	seen := map[*cfg.Proc]bool{}
	for _, p := range an.AllPTFs() {
		// The contexts check.Run walks: a context abandoned
		// mid-recursion is not one.
		if seen[p.Proc] || (!p.ExitReached() && p != an.MainPTF()) {
			continue
		}
		seen[p.Proc] = true
		for _, nd := range p.Proc.Nodes {
			if nd.Kind != cfg.CallNode || nd.Direct == nil {
				continue
			}
			switch nd.Direct.Name {
			case "getenv":
				getenv = true
			case "system":
				sinks = append(sinks, nd)
			}
		}
	}
	if !getenv {
		return nil
	}
	for _, nd := range sinks {
		if !reported[line{nd.Pos.File, nd.Pos.Line}] {
			return fail(StageTaint, "system() at %s in a program that calls getenv has no taintflow report", nd.Pos)
		}
	}
	return nil
}

// AndersenViolation runs only the collapsed-PTF ⊆ Andersen comparison
// and returns the first missing edge ("" if the inclusion holds). The
// oracle lattice deliberately omits this edge — see CheckProgram — and
// a pinned test documents a program where it fails.
func AndersenViolation(name, src string) (string, error) {
	prog, err := Frontend(name, src)
	if err != nil {
		return "", err
	}
	fp, err := runEngine(prog, engine{name: "worklist"})
	if err != nil {
		return "", err
	}
	and, err := andersen.Analyze(prog)
	if err != nil {
		return "", err
	}
	return subsetViolation(solutionEdges(fp.an), edgeSet(and.Edges())), nil
}

// ---- block identity across analyses ----

// blockRef identifies a memory block in a way that is stable across
// independent analyses of the same program: by originating symbol when
// there is one, otherwise by name (heap@site, strN, <retval:proc>).
type blockRef struct {
	sym  *cast.Symbol
	name string
}

func (r blockRef) String() string {
	if r.sym != nil {
		return r.sym.Name
	}
	return r.name
}

// refOf maps a block to its cross-analysis identity. Abstract blocks
// (extended parameters, the null pseudo-location) and flow-graph
// temporaries ($tN — every analysis builds its own flow graph, so temp
// symbols have no cross-analysis identity) have no counterpart in
// other analyses and are skipped.
func refOf(b *memmod.Block) (blockRef, bool) {
	switch b.Kind {
	case memmod.ParamBlock, memmod.NullBlock:
		return blockRef{}, false
	}
	if strings.HasPrefix(b.Name, "$t") {
		return blockRef{}, false
	}
	if b.Sym != nil {
		return blockRef{sym: b.Sym}, true
	}
	return blockRef{name: b.Name}, true
}

type edge struct{ src, dst blockRef }

func (e edge) String() string { return e.src.String() + " -> " + e.dst.String() }

// solutionEdges extracts the block-granularity edges of the collapsed
// PTF solution.
func solutionEdges(an *analysis.Analysis) map[edge]bool {
	sol := an.Solution()
	out := make(map[edge]bool)
	for _, loc := range sol.Locations() {
		src, ok := refOf(loc.Base)
		if !ok {
			continue
		}
		for _, v := range sol.PointsTo(loc).Locs() {
			dst, ok := refOf(v.Base)
			if !ok {
				continue
			}
			out[edge{src, dst}] = true
		}
	}
	return out
}

func edgeSet(pairs [][2]*memmod.Block) map[edge]bool {
	out := make(map[edge]bool, len(pairs))
	for _, p := range pairs {
		src, ok := refOf(p[0])
		if !ok {
			continue
		}
		dst, ok := refOf(p[1])
		if !ok {
			continue
		}
		out[edge{src, dst}] = true
	}
	return out
}

// subsetViolation returns the first edge of a not present in b ("" if
// a ⊆ b), in deterministic order.
func subsetViolation(a, b map[edge]bool) string {
	var missing []string
	for e := range a {
		if !b[e] {
			missing = append(missing, e.String())
		}
	}
	if len(missing) == 0 {
		return ""
	}
	sort.Strings(missing)
	return missing[0]
}

// ---- interpreter-fact coverage (the soundness oracle) ----

// covers reports whether the location-set key k includes byte offset
// off.
func covers(k memmod.LocSet, off int64) bool {
	if k.Stride == 0 {
		return k.Off == off
	}
	return ((off-k.Off)%k.Stride+k.Stride)%k.Stride == 0
}

// blockMatches identifies an analysis block with a runtime object.
func blockMatches(b *memmod.Block, sym *cast.Symbol, name string) bool {
	if sym != nil && b.Sym != nil {
		return b.Sym == sym
	}
	return b.Name == name
}

func factCovered(sol *analysis.Solution, keys []memmod.LocSet, fact interp.DynFact) bool {
	for _, k := range keys {
		if !blockMatches(k.Base, fact.Sym, fact.Block) || !covers(k, fact.Off) {
			continue
		}
		for _, v := range sol.PointsTo(k).Locs() {
			if blockMatches(v.Base, fact.TSym, fact.Target) && covers(v, fact.TOff) {
				return true
			}
		}
	}
	return false
}

// dynEdge maps a dynamic fact to a block-granularity edge using the
// same cross-analysis identity as refOf (sym when known, else name).
func dynEdge(f interp.DynFact) (edge, bool) {
	src := blockRef{sym: f.Sym, name: f.Block}
	dst := blockRef{sym: f.TSym, name: f.Target}
	if src.sym != nil {
		src.name = ""
	}
	if dst.sym != nil {
		dst.name = ""
	}
	return edge{src, dst}, true
}

func dropBlock(keys []memmod.LocSet, name string) []memmod.LocSet {
	out := keys[:0:0]
	for _, k := range keys {
		if k.Base.Name == name {
			continue
		}
		out = append(out, k)
	}
	return out
}

// ---- fuzz-input decoding ----

// BenchmarkBit in the raw feature word switches the input from the
// program generator to one of the embedded benchmark suite programs
// (selected by seed). It sits far above the generator's feature bits.
const BenchmarkBit uint32 = 1 << 31

// DecodeInput maps a raw fuzz tuple to a named program plus oracle
// options. Generated programs get the full lattice; benchmark programs
// skip the quadratic full-pass engine so a single fuzz iteration stays
// within budget.
func DecodeInput(seed int64, raw uint32) (name, src string, opt Options) {
	if raw&BenchmarkBit != 0 {
		// lex315's table-driven scanner makes a single analysis sweep
		// take minutes — far beyond a fuzz iteration's budget; the root
		// equivalence tests cover it.
		var suite []workload.Benchmark
		for _, b := range workload.Suite() {
			if b.Name != "lex315" {
				suite = append(suite, b)
			}
		}
		if len(suite) == 0 {
			return "", "", opt
		}
		b := suite[int(uint64(seed)%uint64(len(suite)))]
		return b.Name, b.Source, Options{
			SkipFullPass:     true,
			SkipUnifyLattice: true,
		}
	}
	cfg := workload.FuzzGenConfig(seed, raw)
	name = fmt.Sprintf("gen(seed=%d,feat=%s)", seed, cfg.Features)
	return name, workload.Generate(cfg), Options{}
}
