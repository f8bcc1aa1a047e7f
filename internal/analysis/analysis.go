package analysis

import (
	"fmt"
	"time"

	"wlpa/internal/cast"
	"wlpa/internal/cfg"
	"wlpa/internal/ctok"
	"wlpa/internal/memmod"
	"wlpa/internal/ptset"
	"wlpa/internal/sem"
)

// ReusePolicy selects how PTFs are reused across calling contexts.
type ReusePolicy int

const (
	// ReuseByAliasPattern is the paper's algorithm: a PTF is reused
	// whenever the input aliases and function-pointer values match.
	ReuseByAliasPattern ReusePolicy = iota
	// NeverReuse reanalyzes the callee for every call site (the Emami
	// et al. invocation-graph discipline), for comparison.
	NeverReuse
	// SingleSummary keeps one PTF per procedure and merges every
	// context into it (a context-insensitive summary), for comparison.
	SingleSummary
)

func (r ReusePolicy) String() string {
	switch r {
	case ReuseByAliasPattern:
		return "alias-pattern"
	case NeverReuse:
		return "never-reuse"
	case SingleSummary:
		return "single-summary"
	}
	return "?"
}

// LibCall is the view of a call site handed to library-function
// summaries; the summary expresses its pointer effects through it.
type LibCall interface {
	// NumArgs returns the number of actual arguments.
	NumArgs() int
	// Arg returns the value set of the i'th actual (empty if absent).
	Arg(i int) memmod.ValueSet
	// Deref returns the pointed-to contents of the given pointer values.
	Deref(v memmod.ValueSet) memmod.ValueSet
	// Store weakly assigns vals through the pointers in dsts.
	Store(dsts, vals memmod.ValueSet)
	// Copy copies the pointer contents of the objects named by src to
	// the objects named by dst (memcpy-style), up to size bytes (<=0
	// means unbounded).
	Copy(dst, src memmod.ValueSet, size int64)
	// Heap returns the heap block for this call's static site.
	Heap() memmod.ValueSet
	// Return sets the call's return value.
	Return(v memmod.ValueSet)
	// Invoke analyzes calls through the function-pointer values in
	// targets with the given argument value sets (qsort callbacks).
	Invoke(targets memmod.ValueSet, args []memmod.ValueSet)
	// Unknown returns the unknown-position widening of v (stride 1).
	Unknown(v memmod.ValueSet) memmod.ValueSet
	// Free records that the storage named by the pointer values in v is
	// deallocated at this call site. The freed set and site are kept on
	// the analysis state (see Analysis.FreeSites) for checkers; the
	// points-to facts themselves are unaffected (heap blocks summarize
	// whole allocation sites and cannot be strongly killed).
	Free(v memmod.ValueSet)
}

// LibSummary summarizes the pointer behavior of one library function.
type LibSummary func(c LibCall)

// LibEffect declares the MOD/REF behavior of a library function for the
// summary computation (ModRefTable): which argument pointees it may
// modify or read. It complements LibSummary, which expresses points-to
// effects; a function may have either, both, or neither (no entry and no
// summary means a conservative ModAll+RefAll assumption).
type LibEffect struct {
	// ModArgs lists argument indices whose pointed-to storage the
	// function may modify (memcpy's dst is ModArgs[0]).
	ModArgs []int
	// RefArgs lists argument indices whose pointed-to storage the
	// function may read (memcpy's src is RefArgs[1]).
	RefArgs []int
	// ModAll marks functions that may modify anything reachable from any
	// pointer argument (scanf).
	ModAll bool
	// RefAll marks functions that may read anything reachable from any
	// pointer argument (printf with %s).
	RefAll bool
}

// Options configure an analysis run.
type Options struct {
	// Reuse selects the PTF reuse policy (default ReuseByAliasPattern).
	Reuse ReusePolicy
	// Lib maps library (extern) function names to summaries. Extern
	// functions without summaries get a conservative generic summary.
	Lib map[string]LibSummary
	// CollectSolution adds the solution-collection pass after the
	// fixpoint, which builds the whole-program concrete points-to
	// solution (used by queries and the interpreter soundness oracle).
	// The fixpoint itself is the same with or without it.
	CollectSolution bool
	// MaxPTFs caps PTFs per procedure; past the cap contexts merge
	// into the last PTF (the paper's suggested generalization, §8).
	// 0 means unlimited.
	MaxPTFs int
	// MaxTotalPTFs caps the program-wide PTF count; past the cap new
	// contexts merge into existing PTFs. Used to bound the NeverReuse
	// (Emami-style) policy, whose context count grows exponentially.
	// 0 means unlimited.
	MaxTotalPTFs int
	// Timeout aborts the analysis after a wall-clock budget (0 = none).
	// Exceeding it returns ErrTimeout; the statistics remain valid for
	// the work done so far.
	Timeout time.Duration
	// CombineOffsets implements the optimization the paper suggests in
	// §7: most procedures with more than one PTF differ only in the
	// offsets and strides of their initial points-to functions;
	// treating those as matching (with merged parameter bindings)
	// trades a little context sensitivity for fewer PTFs.
	CombineOffsets bool
	// TrackNull is ignored: every analysis models the null pointer
	// constant as a value (the <null> pseudo-location), which never
	// names storage or enters a callee, so it changes no PTF.
	//
	// Deprecated: null tracking is always on.
	TrackNull bool
	// ForceFullPasses disables the dependency-tracked worklist engine
	// and re-evaluates every node of every PTF per top-level pass (the
	// pre-worklist behavior). Both engines must produce identical
	// results; this exists as a cross-check and fallback.
	ForceFullPasses bool
	// Workers is ignored: every analysis is one sequential walk.
	//
	// Deprecated: the parallel scheduler it sized was removed.
	Workers int
	// LibEffects maps library function names to their MOD/REF behavior
	// for the ModRefTable. Summarized functions without an entry are
	// treated as having no pointer-visible memory effects; functions
	// with neither a summary nor an entry are assumed to modify and read
	// everything reachable from their arguments.
	LibEffects map[string]LibEffect
}

// ErrTimeout is returned by Run when Options.Timeout is exceeded, and
// by the checker when it runs past the same budget (see Deadline).
var ErrTimeout = &Error{Msg: "analysis wall-clock budget exceeded"}

// Stats are cumulative analysis statistics.
type Stats struct {
	Procedures     int
	PTFs           int
	PTFsPerProc    map[string]int
	Params         int
	NodesEvaluated int
	Passes         int
	Duration       time.Duration
	// PTFsCapped reports that MaxPTFs/MaxTotalPTFs forced contexts to
	// merge (the analysis degraded toward a context-insensitive
	// summary to stay tractable).
	PTFsCapped bool
	// CollectSweeps counts the sweeps of the last solution-collection
	// pass over the PTFs it visited, and CollectGrowths those of them
	// that changed their PTF (each is followed by one more sweep): a
	// converged PTF takes one confirming sweep.
	CollectSweeps  int
	CollectGrowths int
	// AppliesSkipped counts callee summary applications the apply memo
	// proved to be no-ops (see PTF.applied), collection included.
	AppliesSkipped int
}

// AvgPTFs returns the average number of PTFs per analyzed procedure.
func (s Stats) AvgPTFs() float64 {
	if s.Procedures == 0 {
		return 0
	}
	return float64(s.PTFs) / float64(s.Procedures)
}

// Error is an analysis failure.
type Error struct {
	Pos ctok.Pos
	Msg string
}

func (e *Error) Error() string {
	if e.Pos.IsValid() {
		return fmt.Sprintf("%s: %s", e.Pos, e.Msg)
	}
	return e.Msg
}

// initEntryKind distinguishes input-domain entries.
type initEntryKind int

const (
	ptrInitEntry   initEntryKind = iota // initial value of an input pointer
	globalRefEntry                      // direct reference to a global
)

// initEntry is one element of a PTF's input-domain specification,
// replayed in creation order when testing whether the PTF applies.
type initEntry struct {
	kind initEntryKind

	// ptrInitEntry: Ptr is the input pointer location (callee name
	// space); Val its single-extended-parameter initial value. Empty
	// Val means the pointer had no targets.
	ptr      memmod.LocSet
	val      memmod.LocSet
	valEmpty bool

	// globalRefEntry: the referenced global and its parameter.
	sym   *cast.Symbol
	param *memmod.Block
}

// PTF is a partial transfer function: the summary of a procedure under
// one input-domain (alias pattern + function-pointer values).
type PTF struct {
	Proc *cfg.Proc
	Pts  *ptset.PTS

	// locals maps local symbols (incl. params and temps) to blocks.
	locals assoc[*cast.Symbol, *memmod.Block]
	retval *memmod.Block

	// params are the extended parameters in creation order.
	params []*memmod.Block
	// initial is the input-domain specification, in creation order.
	initial []initEntry
	// globalParams maps global symbols to their parameters.
	globalParams assoc[*cast.Symbol, *memmod.Block]
	// fpDomain records resolved function targets per function-pointer
	// parameter (part of the input domain, paper §5.1).
	fpDomain map[*memmod.Block]map[*cast.Symbol]bool
	// pointedBy counts initial entries pointing at each parameter;
	// two or more with non-unique actuals force NotUnique (§4.1).
	pointedBy map[*memmod.Block]int

	// home identifies the calling context that created the PTF; while
	// iterating, mismatches at the home context update the PTF in
	// place instead of allocating a new one (paper §5.2).
	homeNode *cfg.Node
	homePTF  *PTF

	// siteUsed records, per (call node, callee) in this PTF's body, the
	// callee PTF the site last resolved to. When the site's inputs are
	// intermediate iteration values that no longer replay against any
	// existing domain, the previously used PTF is updated in place
	// (same rationale as the home-context rule, paper §5.2) instead of
	// allocating a duplicate for a transient state.
	siteUsed assoc[siteKey, *PTF]

	// callEdges records, per (call node, callee) in this PTF's body, the
	// callee PTF the site last applied — including recursive
	// applications, which siteUsed deliberately excludes (it would
	// perturb PTF reuse). Read-only client data: the converged map backs
	// the call graph and the MOD/REF summary folds; the engine itself
	// never consults it.
	callEdges assoc[siteKey, *PTF]

	// owner is the Analysis the PTF belongs to (hook dispatch).
	owner *Analysis

	// exitReached records that the exit has been evaluated at least
	// once (needed to defer recursive applications, §5.4).
	exitReached bool
	// recursive marks PTFs that serve a recursive cycle; their input
	// domain merges all recursive call sites (§5.4).
	recursive bool

	// version increments whenever the summary grows; callers re-apply
	// summaries whose version changed.
	version int

	// deps records the version of every callee summary applied while
	// analyzing this PTF; a stale entry forces a revisit so that the
	// grown summary propagates through this procedure's own dataflow
	// (essential for recursive cycles, paper §5.4).
	deps assoc[*PTF, int]

	// applied memoizes, per call site, the last application of a callee
	// summary into this PTF: the callee and its version, the binding
	// fingerprint (applyFingerprint), and every caller destination it
	// wrote with its precision and, for a weak write, the location's
	// change generation (ptset.PTS.Gen) after the application. While all
	// of them read the same, re-applying is a no-op the engine skips
	// wholesale (the dominant cost of re-evaluating a quiescent call
	// node), in the fixpoint and the collection pass alike. The skip is
	// exact: what the application writes, and whether a write is
	// strong, is a function of the callee's records (the version), the
	// bindings, multi and multiTarget (the fingerprint) and each
	// destination's precision; a weak write also merges the
	// destination's incoming value, which reads only the location's own
	// records (LookupIn, or getInitial's entry record), pinned by its
	// generation, resolved under the subsumption generation the
	// fingerprint folds in. A strong write reads no incoming value.
	applied assoc[siteKey, appliedMemo]

	// --- worklist engine state (nil/unused under ForceFullPasses) ---

	// dirty flags flow nodes whose inputs may have changed since their
	// last evaluation (indexed by dense per-proc node ID); evalProc
	// seeds its iteration from them. dirtyN counts set flags; a nil
	// slice means worklist tracking is off.
	dirty  []bool
	dirtyN int
	// evaluated marks nodes (by dense per-proc ID) evaluated at least
	// once, persisting across
	// visits (the full engine keeps a per-visit map instead).
	evaluated []bool
	// callers records every (caller PTF, call node) pair that applied
	// this summary; version bumps re-dirty exactly those nodes. A small
	// deduplicated list: fan-in per summary is low, so linear scans beat
	// a nested map and its per-edge allocations.
	callers []callerEdge
}

// assoc maps keys to values with a small-list fast path: a PTF's
// locals, referenced globals, call edges and dependencies, and a
// block's readers, are a handful each, where a linear scan over a pair
// list beats a Go map's hashing and bucket allocations. Past
// assocPromote entries it switches to a map. Unlike a map, list-mode
// iteration is deterministic (insertion order); the iterating clients
// either sort afterwards or are order-insensitive.
type assoc[K comparable, V any] struct {
	list []assocPair[K, V]
	m    map[K]V
}

type assocPair[K comparable, V any] struct {
	k K
	v V
}

const assocPromote = 24

func (s *assoc[K, V]) get(k K) (V, bool) {
	for i := range s.list {
		if s.list[i].k == k {
			return s.list[i].v, true
		}
	}
	if s.m != nil {
		v, ok := s.m[k]
		return v, ok
	}
	var zero V
	return zero, false
}

func (s *assoc[K, V]) put(k K, v V) {
	if s.m != nil {
		s.m[k] = v
		return
	}
	for i := range s.list {
		if s.list[i].k == k {
			s.list[i].v = v
			return
		}
	}
	if len(s.list) < assocPromote {
		s.list = append(s.list, assocPair[K, V]{k, v})
		return
	}
	s.m = make(map[K]V, 2*assocPromote)
	for i := range s.list {
		s.m[s.list[i].k] = s.list[i].v
	}
	s.m[k] = v
	s.list = nil
}

func (s *assoc[K, V]) size() int {
	if s.m != nil {
		return len(s.m)
	}
	return len(s.list)
}

// each calls fn for every entry until it returns false.
func (s *assoc[K, V]) each(fn func(K, V) bool) {
	if s.m != nil {
		for k, v := range s.m {
			if !fn(k, v) {
				return
			}
		}
		return
	}
	for i := range s.list {
		if !fn(s.list[i].k, s.list[i].v) {
			return
		}
	}
}

// appliedMemo is one memoized summary application (see PTF.applied).
type appliedMemo struct {
	ptf     *PTF
	version int
	fp      uint64
	dsts    []appliedDst
}

// appliedDst is one caller destination a memoized application wrote.
type appliedDst struct {
	loc     memmod.LocSet
	precise bool
	weak    bool
	gen     uint32 // weak writes only: the location's generation after
}

// holds reports whether every destination of m still reads as
// recorded in the caller's points-to function pts.
func (m *appliedMemo) holds(pts *ptset.PTS) bool {
	for _, d := range m.dsts {
		if d.loc.Precise() != d.precise || d.weak && pts.Gen(d.loc) != d.gen {
			return false
		}
	}
	return true
}

// callerEdge is one recorded application site of a summary.
type callerEdge struct {
	ptf *PTF
	nd  *cfg.Node
}

// siteKey identifies a resolved call edge: a call node in the caller's
// body together with the callee procedure (function-pointer calls can
// resolve one node to several procedures).
type siteKey struct {
	nd   *cfg.Node
	proc *cfg.Proc
}

// readerKey identifies one registered read: PTF p evaluated node nd
// using the contents of some block.
type readerKey struct {
	ptf *PTF
	nd  *cfg.Node
}

// Analysis is a configured pointer-analysis instance.
type Analysis struct {
	prog  *sem.Program
	procs map[*cast.FuncDecl]*cfg.Proc
	opts  Options

	globalBlocks map[*cast.Symbol]*memmod.Block
	funcBlocks   map[*cast.Symbol]*memmod.Block
	strBlocks    map[int]*memmod.Block
	heapBlocks   map[string]*memmod.Block

	// intern is the run-wide location-set intern table: every PTS keys
	// its records on the IDs it hands out. IDs never outlive the run —
	// the table dies with the Analysis.
	intern *memmod.Interner

	// nullBlock is the null pseudo-location: a value that rides in
	// points-to sets but is dropped from every write-destination set,
	// every callee's actuals and the collapsed solution.
	nullBlock *memmod.Block
	// frees records the freed value set per (PTF, call node), merged
	// across iterations; populated by library summaries via
	// LibCall.Free.
	frees map[freeKey]*memmod.ValueSet

	// ptfs lists the PTFs of every procedure in creation order.
	ptfs    map[*cfg.Proc][]*PTF
	mainPTF *PTF

	numPTFs  int
	capped   bool
	deadline time.Time
	timedOut bool
	stats    Stats
	solution *Solution

	// paramConcrete accumulates, per extended parameter, the union of
	// the raw actual bindings it received across every context; resolved
	// transitively when building the collapsed Solution.
	paramConcrete map[*memmod.Block]*memmod.ValueSet

	// versionClock counts every PTF version increment program-wide; the
	// convergence test compares it across passes instead of rescanning
	// all PTFs.
	versionClock uint64

	// stack is the activation stack of the walk from main (recursion
	// detection, subsumption propagation).
	stack []*frame
	// changed is the per-pass "any fact grew" flag.
	changed bool

	// pendBuf is the reusable pending-write scratch of applySummary
	// (small; linear-scanned by destination), and dstBuf the list of
	// destinations it wrote, which callDefinedRet memoizes.
	pendBuf []pendingWrite
	dstBuf  []appliedDst
	// arena backs the transient value sets built while evaluating
	// (expression results, meets, dereference contents). It is never
	// reset during a run; Run drops its current chunk when it returns
	// (releaseScratch), and chunks no PTF references die with the run's
	// frames.
	arena memmod.Arena

	// track enables the dependency-tracked worklist engine.
	track bool
	// incremental marks a re-analysis grafted onto the surviving state
	// of a previous run (see incremental.go): Run reuses the kept main
	// PTF, and the solution-collection descent visits call nodes only.
	incremental bool
	// keptCache holds the graft's surviving baseline PTFs awaiting
	// adoption: getPTF moves one into the live population when a call
	// site's input pattern matches it (see adoptKept). restoredPTFs
	// counts the adoptions.
	keptCache    map[*cfg.Proc][]*PTF
	restoredPTFs int
	// collecting, when non-nil, marks the final solution-collection
	// pass and holds the PTFs it visited: each reachable PTF exactly
	// once, in the first context that reaches it (see collectSolution).
	collecting map[*PTF]bool
	// collectVisits counts the PTF visits of the last collection pass.
	collectVisits int
	// readers registers, per memory block (by representative), the
	// (PTF, node) pairs whose evaluation read the block's records; a
	// write to the block re-dirties exactly those nodes.
	readers map[*memmod.Block]assoc[readerKey, struct{}]

	// modref caches the MOD/REF summary table built from the converged
	// fixpoint (see modref.go); built on first demand, single-threaded.
	modref *ModRefTable
}

// frame is one activation on the analysis call stack.
type frame struct {
	ptf      *PTF
	caller   *frame
	callNode *cfg.Node // call site in the caller (nil for main)

	// args are the actual argument value sets (caller name space).
	args []memmod.ValueSet

	// pmap binds extended parameters to their actual values in the
	// caller's name space (offset 0 of the parameter corresponds to
	// the recorded location sets).
	pmap map[*memmod.Block]memmod.ValueSet

	// evaluated marks flow nodes evaluated in the current EvalProc.
	evaluated []bool

	// multiTarget disables strong updates while applying one of
	// several possible callees (paper §5.3).
	multiTarget bool
}

// New prepares an analysis of prog.
func New(prog *sem.Program, opts Options) (*Analysis, error) {
	return NewPrepared(prog, nil, opts)
}

// NewPrepared is New over flow graphs the caller has built
// (cfg.BuildAll of prog.Funcs); nil procs means build them here. The
// analysis only reads the flow graphs, so several analyses may share
// them at once, until one of them is grafted onto an edited program
// (PrepareIncremental rewires the kept flow graphs in place).
func NewPrepared(prog *sem.Program, procs map[*cast.FuncDecl]*cfg.Proc, opts Options) (*Analysis, error) {
	if procs == nil {
		var err error
		if procs, err = cfg.BuildAll(prog.Funcs); err != nil {
			return nil, err
		}
	}
	a := &Analysis{
		prog:         prog,
		procs:        procs,
		opts:         opts,
		globalBlocks: make(map[*cast.Symbol]*memmod.Block),
		funcBlocks:   make(map[*cast.Symbol]*memmod.Block),
		strBlocks:    make(map[int]*memmod.Block),
		heapBlocks:   make(map[string]*memmod.Block),
		intern:       memmod.NewInterner(),
		nullBlock:    memmod.NewNull(),
		ptfs:         make(map[*cfg.Proc][]*PTF, len(procs)),
		track:        !opts.ForceFullPasses,
	}
	if a.track {
		a.readers = make(map[*memmod.Block]assoc[readerKey, struct{}])
	}
	a.stats.PTFsPerProc = make(map[string]int)
	if opts.CollectSolution {
		a.solution = newSolution()
		a.solution.resolve = func(v memmod.ValueSet) memmod.ValueSet {
			return a.concretize(v, 0)
		}
		a.paramConcrete = make(map[*memmod.Block]*memmod.ValueSet)
	}
	return a, nil
}

// maxPasses bounds top-level fixpoint passes (safety valve).
const maxPasses = 64

// Run analyzes the whole program starting from main. However it ends,
// it releases the run's evaluation scratch (releaseScratch).
func (a *Analysis) Run() error {
	defer a.releaseScratch()
	start := time.Now()
	mf, err := a.fixpoint(start)
	if err != nil {
		return err
	}
	if a.solution != nil {
		a.collectSolution(mf)
	}
	if a.incremental {
		a.sweepKept()
	}
	a.finishStats(start)
	return nil
}

// releaseScratch drops the evaluation scratch of a finished run: the
// activation stack, applySummary's buffers and the arena's current
// chunk. Frames link their callers, and their bindings and argument
// sets point into arena chunks, so a kept result would otherwise pin
// most of the chunks its fixpoint ever carved. Carves are never
// recycled, so whatever a PTF still references stays valid; the next
// run (a graft) carves afresh.
func (a *Analysis) releaseScratch() {
	a.stack = nil
	a.pendBuf, a.dstBuf = nil, nil
	a.arena = memmod.Arena{}
}

// fixpoint iterates from main until no fact changes and returns main's
// frame. It is the same with or without CollectSolution.
func (a *Analysis) fixpoint(start time.Time) (*frame, error) {
	if a.opts.Timeout > 0 {
		a.deadline = start.Add(a.opts.Timeout)
	}
	if a.prog.Main == nil {
		return nil, &Error{Msg: "program has no main function"}
	}
	mainProc := a.procs[a.prog.Main]
	if a.mainPTF == nil {
		// An incremental re-analysis whose main survived the edit keeps
		// the converged main PTF; everything else starts fresh here.
		a.mainPTF = a.newPTF(mainProc, nil, nil)
	}
	mf := &frame{
		ptf:  a.mainPTF,
		pmap: make(map[*memmod.Block]memmod.ValueSet),
	}
	a.seedGlobals(mf)
	for pass := 1; ; pass++ {
		a.stats.Passes = pass
		a.changed = false
		clock := a.versionClock
		a.visit(mf)
		if a.timedOut {
			a.finishStats(start)
			return nil, ErrTimeout
		}
		if a.track {
			// Worklist convergence: every dirty node reachable through
			// the caller cascade was drained through main's dirty set,
			// so a clean main plus a stable version clock is quiescence.
			if a.mainPTF.dirtyN == 0 && a.versionClock == clock {
				break
			}
		} else if !a.changed && a.versionClock == clock {
			break
		}
		if pass >= maxPasses {
			return nil, &Error{Msg: fmt.Sprintf("analysis did not converge after %d passes", pass)}
		}
	}
	return mf, nil
}

// bumpVersion increments a PTF's summary version (and the program-wide
// version clock) and re-dirties every recorded call site of the PTF so
// callers re-apply the grown summary.
func (a *Analysis) bumpVersion(p *PTF) {
	p.version++
	a.versionClock++
	if a.track {
		for _, e := range p.callers {
			a.markDirty(e.ptf, e.nd)
		}
	}
}

// markDirty queues node nd of PTF p for re-evaluation. When p goes from
// quiescent to dirty its call sites are re-dirtied too, so the dirt
// cascades up to main and the next pass descends into p; the
// already-dirty guard bounds the cascade on recursive call cycles.
func (a *Analysis) markDirty(p *PTF, nd *cfg.Node) {
	if p.dirty == nil || p.dirty[nd.ID] {
		return
	}
	wasEmpty := p.dirtyN == 0
	p.dirty[nd.ID] = true
	p.dirtyN++
	if wasEmpty {
		for _, e := range p.callers {
			a.markDirty(e.ptf, e.nd)
		}
	}
}

// registerRead records that evaluating node nd of f's PTF read the
// points-to records of block b; a later write to b re-dirties nd.
func (a *Analysis) registerRead(f *frame, b *memmod.Block, nd *cfg.Node) {
	if !a.track || f == nil || nd == nil {
		return
	}
	a.addReader(b.Representative(), readerKey{f.ptf, nd})
}

// addReader registers k as a reader of block b (once).
func (a *Analysis) addReader(b *memmod.Block, k readerKey) {
	rs := a.readers[b]
	if _, ok := rs.get(k); ok {
		return
	}
	rs.put(k, struct{}{})
	a.readers[b] = rs
}

// notifyWrite re-dirties every registered reader of block b.
func (a *Analysis) notifyWrite(b *memmod.Block) {
	if !a.track {
		return
	}
	rs := a.readers[b.Representative()]
	rs.each(func(k readerKey, _ struct{}) bool {
		a.markDirty(k.ptf, k.nd)
		return true
	})
}

// recordCaller registers a call site of callee so version bumps and
// dirty transitions re-dirty the site.
func (a *Analysis) recordCaller(callee, caller *PTF, nd *cfg.Node) {
	if !a.track {
		return
	}
	for _, e := range callee.callers {
		if e.ptf == caller && e.nd == nd {
			return
		}
	}
	if callee.callers == nil {
		callee.callers = make([]callerEdge, 0, 4)
	}
	callee.callers = append(callee.callers, callerEdge{caller, nd})
}

func (a *Analysis) finishStats(start time.Time) {
	// Only procedures that were actually reached have PTFs; the map is
	// pre-populated with every procedure, so count non-empty lists.
	a.stats.Procedures = 0
	a.stats.PTFs = 0
	for proc, l := range a.ptfs {
		if len(l) == 0 {
			continue
		}
		a.stats.Procedures++
		a.stats.PTFs += len(l)
		a.stats.PTFsPerProc[proc.Name] = len(l)
	}
	if a.incremental {
		// The Params counter tracks newParam calls, which an incremental
		// run skips for parameters restored from the baseline. Parameters
		// are never removed (subsumed ones stay, forwarded), so the live
		// count is exactly the sum over every PTF.
		a.stats.Params = 0
		for _, l := range a.ptfs {
			for _, p := range l {
				a.stats.Params += len(p.params)
			}
		}
	}
	a.stats.Duration = time.Since(start)
	a.stats.PTFsCapped = a.capped
}

// Stats returns cumulative statistics (valid after Run).
func (a *Analysis) Stats() Stats { return a.stats }

// Deadline returns the wall-clock deadline the last Run derived from
// Options.Timeout (zero when there is none). Clients that keep working
// on the converged analysis — the checker and its dataflow walks —
// stop at it too and return ErrTimeout, so the analysis and the
// checking that follows share one budget.
func (a *Analysis) Deadline() time.Time { return a.deadline }

// MainPTF returns main's transfer function (valid after Run).
func (a *Analysis) MainPTF() *PTF { return a.mainPTF }

// PTFs returns the PTFs of the procedure named name.
func (a *Analysis) PTFs(name string) []*PTF { return a.ptfs[a.Proc(name)] }

// Proc returns the flow graph of the named function.
func (a *Analysis) Proc(name string) *cfg.Proc {
	fd := a.prog.FuncByName[name]
	if fd == nil {
		return nil
	}
	return a.procs[fd]
}

// Solution returns the collapsed whole-program solution, or nil when
// CollectSolution was not set.
func (a *Analysis) Solution() *Solution { return a.solution }

// DropCaches discards what a converged analysis rebuilds on demand:
// the MOD/REF table. Every answer stays the same; the next ModRef,
// BindingsAt, check or graft rebuilds it. Like any read of the
// converged state, it must not run concurrently with another.
func (a *Analysis) DropCaches() {
	a.modref = nil
}

// GlobalBlock returns the storage block of a global symbol.
func (a *Analysis) GlobalBlock(sym *cast.Symbol) *memmod.Block {
	return a.globalBlock(sym)
}

// FuncBlock returns the block representing the named function, or nil.
func (a *Analysis) FuncBlock(name string) *memmod.Block {
	for sym, b := range a.funcBlocks {
		if sym.Name == name {
			return b
		}
	}
	return nil
}

// OnChange and OnPhi implement ptset.Hooks: record changes re-dirty
// registered readers, new φ-functions dirty their meet node.
func (p *PTF) OnChange(loc memmod.LocSet) { p.owner.notifyWrite(loc.Base) }

// OnPhi implements ptset.Hooks.
func (p *PTF) OnPhi(nd *cfg.Node) { p.owner.markDirty(p, nd) }

// newPTF allocates a PTF for proc created at the given home context.
func (a *Analysis) newPTF(proc *cfg.Proc, homeNode *cfg.Node, homePTF *PTF) *PTF {
	a.numPTFs++
	p := &PTF{
		Proc:     proc,
		Pts:      ptset.New(proc, a.intern),
		retval:   memmod.NewRetval(proc.Name),
		homeNode: homeNode,
		homePTF:  homePTF,
	}
	// globalParams, fpDomain and pointedBy are created lazily at
	// their write sites: many PTFs never touch them.
	if a.track {
		// One allocation backs both per-node flag sets.
		nn := len(proc.Nodes)
		buf := make([]bool, 2*nn)
		p.dirty = buf[:nn:nn]
		p.dirty[proc.Entry.ID] = true
		p.dirtyN = 1
		p.evaluated = buf[nn:]
		p.owner = a
		p.Pts.SetHooks(p)
	}
	a.ptfs[proc] = append(a.ptfs[proc], p)
	return p
}
