// Package dataflow is a context-sensitive interprocedural finite-lattice
// dataflow engine layered over the converged points-to solution
// (internal/analysis). A client supplies transfer functions over an
// abstract Fact — a map from memory blocks ("cells") to small bitmask
// states — and the engine walks one calling context's CFG to a fixpoint,
// folding calls through per-context summary edges:
//
//   - Each root walk starts at a PTF (one calling context of one
//     procedure) and iterates its CFG in reverse postorder until the
//     per-node facts stabilize; the lattice is finite (cells bounded by
//     the program's blocks, states by 8 bits) and joins are bitwise OR,
//     so the fixpoint terminates.
//   - A call to an analyzed procedure applies the callee's summary:
//     the callee's CFG is walked with the caller's fact as entry fact,
//     memoized per (callee PTF, entry fact, parameter bindings), which
//     is exactly the entry-fact → exit-fact summary-edge discipline of
//     the paper's partial transfer functions, lifted to client lattices.
//   - Extended parameters of walked callees are translated back to the
//     root name space through the call edge's parameter bindings
//     (analysis.BindingsAt), so every fact cell names storage in the
//     root context and the summary composes across arbitrary call
//     chains.
//   - Recursive cycles (a summary demanded while it is being computed)
//     and pathological depth fall back to havocking the call's MOD set
//     (analysis.ModRefTable.NodeEffects) through the client's Havoc
//     hook — only what the callee may write is disturbed.
//   - Library calls (no analyzed body) are handed to the client's
//     Library hook, which models them from libsum-style declarations.
//
// Walking only what can hold a fact: Client.Gen names the library calls
// that can create client state from an empty fact. The contract is that
// on an empty fact, Transfer, Havoc and Library for any call outside Gen
// leave the fact empty and report nothing. Reach closes Gen over the
// converged PTF call graph — a context can generate when its own nodes
// hold a Gen library call or when a context it calls (direct or
// resolved indirect, cycles included) can — and the engine uses it
// twice: an empty-fact summary into a context that cannot generate is
// the identity and is not walked, and a context none of whose home
// chain (itself and the callers that created it, up to main) can
// generate is not walked at all — every fact reaching it is empty. Both
// skips are exact. A nil Gen means every library call may generate, so
// nothing is skipped.
//
// Strong versus weak updates: the engine exposes the resolved target
// blocks of an expression (ArgCells and friends); a client performs a
// strong (destructive) update when the resolution is a single block and
// a weak (joining) update otherwise, mirroring the strong/weak store
// discipline of the points-to engine itself.
//
// Budget: an engine stops at the analysis' wall-clock deadline
// (analysis.Analysis.Deadline) and Run/ContextRun return
// analysis.ErrTimeout instead of a fact.
//
// Determinism: an Engine is meant to be created fresh per root walk (the
// checker passes create one per ContextWalk invocation). All internal
// orders — cell ids, worklist order, summary keys — derive from the
// deterministic CFG and value-set orders, so results are bit-identical
// regardless of how many contexts are walked concurrently elsewhere.
package dataflow

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"wlpa/internal/analysis"
	"wlpa/internal/cfg"
	"wlpa/internal/memmod"
)

// State is a client-defined bitmask over at most 8 lattice states.
// The zero State means "untracked" and is never stored in a Fact.
type State uint8

// Fact maps cells (representative memory blocks) to their abstract
// state. Absent cells are untracked (bottom).
type Fact map[*memmod.Block]State

// Get returns the state of a cell (zero if untracked).
func (f Fact) Get(b *memmod.Block) State { return f[b] }

// Set updates a cell's state; setting the zero state removes the cell,
// keeping the "no zero entries" invariant Equal relies on.
func (f Fact) Set(b *memmod.Block, s State) {
	if s == 0 {
		delete(f, b)
		return
	}
	f[b] = s
}

// Clone returns an independent copy.
func (f Fact) Clone() Fact {
	out := make(Fact, len(f))
	for b, s := range f {
		out[b] = s
	}
	return out
}

// JoinWith merges another fact into f (bitwise OR per cell) and reports
// whether f changed.
func (f Fact) JoinWith(o Fact) bool {
	changed := false
	for b, s := range o {
		if f[b]|s != f[b] {
			f[b] |= s
			changed = true
		}
	}
	return changed
}

// Equal reports whether two facts hold identical states.
func (f Fact) Equal(o Fact) bool {
	if len(f) != len(o) {
		return false
	}
	for b, s := range f {
		if o[b] != s {
			return false
		}
	}
	return true
}

// Client supplies the transfer functions of one dataflow problem. Hooks
// mutate the passed Fact in place; any hook may be nil.
type Client struct {
	// Transfer models one assignment node.
	Transfer func(e *Engine, w *Walk, nd *cfg.Node, f Fact)
	// Library models a call with no analyzed body (nd.Direct is the
	// library symbol).
	Library func(e *Engine, w *Walk, nd *cfg.Node, f Fact)
	// Exit observes the fact flowing out of the ROOT walk's exit node
	// (summary walks do not trigger it).
	Exit func(e *Engine, w *Walk, f Fact)
	// Havoc folds an unanalyzable write (recursion fallback) into a
	// cell's state. Nil means havoc is the identity.
	Havoc func(s State) State
	// Gen reports whether a library call can create client state from
	// an empty fact (a source, or a transition that marks untracked
	// cells). On an empty fact, Transfer, Havoc and Library for any
	// other call must leave the fact empty and report nothing; the
	// engine then skips every walk that can only see empty facts (see
	// Reach). Nil means every library call may generate.
	Gen func(name string) bool
}

// maxDepth bounds the summary-walk call depth; beyond it (or on a
// recursive cycle) the engine havocs the call's MOD set instead.
const maxDepth = 64

// Walk identifies one procedure-level CFG walk: the context being
// walked and the bindings environment translating its extended
// parameters to root-name-space values (nil for the root walk).
type Walk struct {
	PTF *analysis.PTF
	env map[*memmod.Block]memmod.ValueSet
}

// Engine runs one client over one root calling context. Create a fresh
// Engine per root walk; it is not safe for concurrent use, and sharing
// the summary cache across roots would make results depend on walk
// order (the recursion fallback is context-dependent).
type Engine struct {
	A      *analysis.Analysis
	ModRef *analysis.ModRefTable
	Client Client
	// Reach is Client.Gen's reachability over A (NewReach). Engines
	// walking contexts of one analysis with one client may share it;
	// nil computes it on the first Run.
	Reach *Reach

	sums   map[sumKey]Fact
	inprog map[sumKey]bool
	ids    map[*memmod.Block]int
	depth  int
	// reporting is true only during the reporting root walk (Run /
	// ContextRun final walk), not during home-chain or summary walks.
	reporting bool

	deadline time.Time
	ticks    int
	err      error
}

// Reach records which calling contexts of one analysis can generate
// client state from an empty fact (see Client.Gen). A context can
// generate when its own nodes hold a Gen library call — a direct call
// with no analyzed callee, where the engine invokes Client.Library — or
// when a context it calls along analysis.CallEdgesOf can. Indirect calls
// follow their resolved targets and recursive cycles are closed over.
// A Reach is read-only once built, so concurrent engines may share one.
type Reach struct {
	// callees indexes every context's resolved call edges by node.
	callees map[*analysis.PTF]map[*cfg.Node][]*analysis.PTF
	// procs names the procedures with at least one context; a direct
	// call to any other name is a library call.
	procs map[string]bool
	// gen holds the contexts that can generate; nil when Gen is nil
	// (every context may).
	gen map[*analysis.PTF]bool
}

// NewReach computes gen's reachability over a's converged call graph.
// A nil gen marks every context as generating.
func NewReach(a *analysis.Analysis, gen func(name string) bool) *Reach {
	ptfs := a.AllPTFs()
	r := &Reach{
		callees: make(map[*analysis.PTF]map[*cfg.Node][]*analysis.PTF, len(ptfs)),
		procs:   map[string]bool{},
	}
	callers := map[*analysis.PTF][]*analysis.PTF{}
	for _, p := range ptfs {
		r.procs[p.Proc.Name] = true
		m := map[*cfg.Node][]*analysis.PTF{}
		for _, edge := range a.CallEdgesOf(p) {
			m[edge.Node] = append(m[edge.Node], edge.Callee)
			callers[edge.Callee] = append(callers[edge.Callee], p)
		}
		r.callees[p] = m
	}
	if gen == nil {
		return r
	}
	r.gen = map[*analysis.PTF]bool{}
	var work []*analysis.PTF
	for _, p := range ptfs {
		for _, nd := range p.Proc.Nodes {
			if nd.Kind == cfg.CallNode && r.library(p, nd) && gen(nd.Direct.Name) {
				r.gen[p] = true
				work = append(work, p)
				break
			}
		}
	}
	for len(work) > 0 {
		p := work[len(work)-1]
		work = work[:len(work)-1]
		for _, c := range callers[p] {
			if !r.gen[c] {
				r.gen[c] = true
				work = append(work, c)
			}
		}
	}
	return r
}

// CanGen reports whether walking context p from an empty fact can
// produce a non-empty one.
func (r *Reach) CanGen(p *analysis.PTF) bool { return r.gen == nil || r.gen[p] }

// library reports whether call node nd of context p is a library call:
// a direct call with no analyzed callee bound in p.
func (r *Reach) library(p *analysis.PTF, nd *cfg.Node) bool {
	return len(r.callees[p][nd]) == 0 && nd.Direct != nil && !r.procs[nd.Direct.Name]
}

type sumKey struct {
	callee *analysis.PTF
	fact   string
	env    string
}

// Run walks the root context to a fixpoint, starting from the given
// entry fact (nil for an empty one), invokes the client's Exit hook on
// the exit fact, and returns it. Reporting hooks see AtRoot() == true
// for the root walk's own nodes. An empty entry into a context that
// cannot generate is not walked: Exit sees the empty fact.
func (e *Engine) Run(root *analysis.PTF, entry Fact) (Fact, error) {
	e.init()
	w := &Walk{PTF: root}
	if len(entry) == 0 && !e.Reach.CanGen(root) {
		return e.exit(w, Fact{})
	}
	if entry == nil {
		entry = Fact{}
	}
	e.reporting = true
	res := e.walk(w, entry)
	e.reporting = false
	return e.exit(w, res)
}

// ContextRun walks one calling context: the PTF's home chain (the
// caller contexts that created it) is walked first, without reporting,
// to compute the fact actually flowing into this context and the
// binding environment translating its extended parameters; then the
// PTF's own CFG is walked as the reporting root. A defect that needs
// caller state (the caller closed the handle this procedure uses) is
// thus reported at the procedure that trips it, in exactly the calling
// contexts that exhibit it. When no context on the home chain can
// generate, every fact there is empty and nothing is walked: Exit sees
// the empty fact (its Walk carries no bindings environment).
func (e *Engine) ContextRun(p *analysis.PTF) (Fact, error) {
	e.init()
	if !e.chainCanGen(p) {
		return e.exit(&Walk{PTF: p}, Fact{})
	}
	entry, env := e.contextEntry(p)
	w := &Walk{PTF: p, env: env}
	e.reporting = true
	res := e.walk(w, entry)
	e.reporting = false
	return e.exit(w, res)
}

// exit hands the root walk's exit fact to the client, or reports that
// the walk was cut short by the deadline.
func (e *Engine) exit(w *Walk, res Fact) (Fact, error) {
	if e.err != nil {
		return nil, e.err
	}
	if e.Client.Exit != nil {
		e.Client.Exit(e, w, res)
	}
	return res, nil
}

// chainCanGen reports whether p or any caller context on its home chain
// can generate.
func (e *Engine) chainCanGen(p *analysis.PTF) bool {
	for q := p; q != nil; q, _ = q.Home() {
		if e.Reach.CanGen(q) {
			return true
		}
	}
	return false
}

// contextEntry computes the fact flowing into a PTF's context and its
// composed parameter bindings by walking the home chain from main down.
func (e *Engine) contextEntry(p *analysis.PTF) (Fact, map[*memmod.Block]memmod.ValueSet) {
	home, nd := p.Home()
	if home == nil {
		return Fact{}, nil
	}
	hentry, henv := e.contextEntry(home)
	hw := &Walk{PTF: home, env: henv}
	in := e.factAt(hw, hentry, nd)
	return in, e.childEnv(hw, nd, p)
}

func (e *Engine) init() {
	if e.sums != nil {
		return
	}
	e.sums = map[sumKey]Fact{}
	e.inprog = map[sumKey]bool{}
	e.ids = map[*memmod.Block]int{}
	if e.Reach == nil {
		e.Reach = NewReach(e.A, e.Client.Gen)
	}
	e.deadline = e.A.Deadline()
}

// expired reports (and latches) that the analysis' deadline passed. It
// reads the clock once every 256 calls; once it fires, every fixpoint
// returns at once and the root run reports analysis.ErrTimeout.
func (e *Engine) expired() bool {
	if e.err == nil && !e.deadline.IsZero() {
		e.ticks++
		if e.ticks%256 == 0 && time.Now().After(e.deadline) {
			e.err = analysis.ErrTimeout
		}
	}
	return e.err != nil
}

// AtRoot reports whether the engine is currently transferring nodes of
// the reporting root walk (true) rather than a callee summary walk or a
// home-chain walk. Reporting clients fire only at the root: a defect
// inside a callee is reported by that callee's own context run, with
// its own context chain.
func (e *Engine) AtRoot() bool { return e.reporting && e.depth == 0 }

// walk iterates one procedure's CFG (reverse postorder rounds) to a
// fixpoint and returns the fact at the exit node.
func (e *Engine) walk(w *Walk, entry Fact) Fact {
	out := e.fixpoint(w, entry)
	res := out[w.PTF.Proc.Exit]
	if res == nil {
		res = Fact{}
	}
	return res
}

// factAt iterates to a fixpoint and returns the fact flowing INTO nd.
func (e *Engine) factAt(w *Walk, entry Fact, nd *cfg.Node) Fact {
	out := e.fixpoint(w, entry)
	if nd.Kind == cfg.EntryNode {
		return entry.Clone()
	}
	in := Fact{}
	for _, pr := range nd.Preds {
		in.JoinWith(out[pr])
	}
	return in
}

func (e *Engine) fixpoint(w *Walk, entry Fact) map[*cfg.Node]Fact {
	proc := w.PTF.Proc
	out := make(map[*cfg.Node]Fact, len(proc.Nodes))
	// The lattice is finite and joins are monotone; the bound is a
	// deterministic backstop against a pathological non-monotone client.
	maxRounds := 2 + 8*len(proc.Nodes)
	for round := 0; round < maxRounds; round++ {
		changed := false
		for _, nd := range proc.Nodes {
			if e.expired() {
				return out
			}
			var in Fact
			if nd.Kind == cfg.EntryNode {
				in = entry.Clone()
			} else {
				in = Fact{}
				for _, pr := range nd.Preds {
					in.JoinWith(out[pr])
				}
			}
			e.transfer(w, nd, in)
			if !in.Equal(out[nd]) {
				out[nd] = in
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return out
}

func (e *Engine) transfer(w *Walk, nd *cfg.Node, f Fact) {
	switch nd.Kind {
	case cfg.AssignNode:
		if e.Client.Transfer != nil {
			e.Client.Transfer(e, w, nd, f)
		}
	case cfg.CallNode:
		e.transferCall(w, nd, f)
	}
}

func (e *Engine) transferCall(w *Walk, nd *cfg.Node, f Fact) {
	callees := e.Reach.callees[w.PTF][nd]
	if len(callees) == 0 {
		// No analyzed callee bound here: a library call, an unresolved
		// indirect call, or a node the analysis never reached in this
		// context. Only direct library calls get a client model.
		if e.Reach.library(w.PTF, nd) && e.Client.Library != nil {
			e.Client.Library(e, w, nd, f)
		}
		return
	}
	var joined Fact
	for _, callee := range callees {
		res := e.summarize(w, nd, callee, f)
		if joined == nil {
			joined = res
		} else {
			joined.JoinWith(res)
		}
	}
	// The callee walk threads the whole fact through the call, so its
	// exit fact replaces the caller's.
	for b := range f {
		delete(f, b)
	}
	for b, s := range joined {
		f[b] = s
	}
}

// summarize applies one callee's summary edge: entry fact in, exit fact
// out, memoized per (callee, fact, bindings).
func (e *Engine) summarize(w *Walk, nd *cfg.Node, callee *analysis.PTF, f Fact) Fact {
	// An empty fact into a context that cannot generate comes back
	// empty: the summary is the identity.
	if len(f) == 0 && !e.Reach.CanGen(callee) {
		return Fact{}
	}
	env := e.childEnv(w, nd, callee)
	k := sumKey{callee: callee, fact: e.factKey(f), env: e.envKey(env)}
	if res, ok := e.sums[k]; ok {
		return res.Clone()
	}
	if e.inprog[k] || e.depth >= maxDepth {
		// Recursive cycle: approximate the call by havocking what it
		// may write (per-context MOD summary), nothing else.
		res := f.Clone()
		e.havocCall(w, nd, res)
		return res
	}
	e.inprog[k] = true
	e.depth++
	res := e.walk(&Walk{PTF: callee, env: env}, f.Clone())
	e.depth--
	delete(e.inprog, k)
	e.sums[k] = res.Clone()
	return res.Clone()
}

// havocCall applies the client's Havoc to every cell the call may
// modify, per the MOD/REF summary translated to the root name space.
func (e *Engine) havocCall(w *Walk, nd *cfg.Node, f Fact) {
	if e.Client.Havoc == nil || e.ModRef == nil {
		return
	}
	mod, _ := e.ModRef.NodeEffects(w.PTF, nd)
	for _, b := range e.cells(w, mod) {
		f.Set(b, e.Client.Havoc(f.Get(b)))
	}
}

// childEnv composes the call edge's parameter bindings with the current
// walk's environment, producing callee-parameter → root-name-space
// values. Iteration is in sorted parameter-name order so cell ids are
// assigned deterministically.
func (e *Engine) childEnv(w *Walk, nd *cfg.Node, callee *analysis.PTF) map[*memmod.Block]memmod.ValueSet {
	raw := e.A.BindingsAt(w.PTF, nd, callee)
	params := make([]*memmod.Block, 0, len(raw))
	for b := range raw {
		params = append(params, b)
	}
	sort.Slice(params, func(i, j int) bool { return params[i].Name < params[j].Name })
	env := make(map[*memmod.Block]memmod.ValueSet, len(raw))
	for _, b := range params {
		tv := e.translate(w, raw[b])
		e.id(b)
		for _, l := range tv.Locs() {
			e.id(l.Resolve().Base.Representative())
		}
		env[b.Representative()] = tv
	}
	return env
}

// translate maps values from the walked context's name space into the
// root name space by resolving extended parameters through the walk's
// environment. Root-walk values (env == nil) pass through: the root's
// own extended parameters are legitimate cells.
func (e *Engine) translate(w *Walk, vals memmod.ValueSet) memmod.ValueSet {
	if w.env == nil {
		return vals
	}
	var out memmod.ValueSet
	for _, l := range vals.Locs() {
		l = l.Resolve()
		if l.Base.Kind == memmod.ParamBlock {
			if bound, ok := w.env[l.Base.Representative()]; ok {
				b := bound
				if l.Off != 0 {
					b = b.Shift(l.Off)
				}
				if l.Stride != 0 {
					b = b.WithStride(l.Stride)
				}
				out.AddAll(b)
				continue
			}
		}
		out.Add(l)
	}
	return out
}

// cells reduces a value set to its distinct target blocks in the root
// name space, sorted by name (ties by first-encounter id), dropping the
// null and function pseudo-blocks.
func (e *Engine) cells(w *Walk, vals memmod.ValueSet) []*memmod.Block {
	seen := map[*memmod.Block]bool{}
	var out []*memmod.Block
	for _, l := range e.translate(w, vals).Locs() {
		b := l.Resolve().Base
		if b.Kind == memmod.NullBlock || b.Kind == memmod.FuncBlock {
			continue
		}
		b = b.Representative()
		if !seen[b] {
			seen[b] = true
			e.id(b)
			out = append(out, b)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return e.ids[out[i]] < e.ids[out[j]]
	})
	return out
}

// ArgCells resolves a call's i'th actual to the blocks it points at —
// the storage the argument denotes (in points-to form an argument
// expression evaluates to the locations the pointer targets).
func (e *Engine) ArgCells(w *Walk, nd *cfg.Node, i int) []*memmod.Block {
	if i < 0 || i >= len(nd.Args) {
		return nil
	}
	return e.cells(w, e.A.EvalAt(w.PTF, nd.Args[i], nd))
}

// ExprCells resolves a location expression to its target blocks.
func (e *Engine) ExprCells(w *Walk, ex *cfg.Expr, nd *cfg.Node) []*memmod.Block {
	if ex == nil {
		return nil
	}
	return e.cells(w, e.A.EvalAt(w.PTF, ex, nd))
}

// LoadCells returns the blocks a source expression reads data from: the
// pointee storage of every top-level dereference term. (Intermediate
// pointer loads of nested dereferences move pointers, not data; data-
// taint style clients care about the outermost load.)
func (e *Engine) LoadCells(w *Walk, ex *cfg.Expr, nd *cfg.Node) []*memmod.Block {
	if ex == nil {
		return nil
	}
	var vals memmod.ValueSet
	for _, t := range ex.Terms {
		if t.Kind == cfg.TermDeref {
			vals.AddAll(e.A.EvalAt(w.PTF, t.Base, nd))
		}
	}
	return e.cells(w, vals)
}

// StoreCells returns the blocks a destination expression writes: the
// storage of directly named variables plus the pointee storage of
// dereference destinations.
func (e *Engine) StoreCells(w *Walk, ex *cfg.Expr, nd *cfg.Node) []*memmod.Block {
	if ex == nil {
		return nil
	}
	var vals memmod.ValueSet
	for _, t := range ex.Terms {
		switch t.Kind {
		case cfg.TermVar:
			vals.Add(e.A.VarLoc(w.PTF, t.Sym, t.Off, t.Stride))
		case cfg.TermDeref:
			vals.AddAll(e.A.EvalAt(w.PTF, t.Base, nd))
		}
	}
	return e.cells(w, vals)
}

// HeapCell returns the heap block allocated at a call node (nil if the
// node is not a reached allocation site), registered as a cell.
func (e *Engine) HeapCell(nd *cfg.Node) *memmod.Block {
	b := e.A.HeapBlockAt(nd)
	if b == nil {
		return nil
	}
	b = b.Representative()
	e.id(b)
	return b
}

// Strong reports whether an update through the given resolved targets
// may be performed destructively: exactly one block. (Object uniqueness
// is the client's call — a typestate client strong-updates singleton
// heap cells because the allocation site re-initializes their state.)
func Strong(cells []*memmod.Block) bool { return len(cells) == 1 }

// id assigns small per-engine integers to blocks in first-encounter
// order; every assignment site iterates deterministically, so the ids —
// and with them the summary keys — are reproducible.
func (e *Engine) id(b *memmod.Block) int {
	if n, ok := e.ids[b]; ok {
		return n
	}
	n := len(e.ids)
	e.ids[b] = n
	return n
}

func (e *Engine) factKey(f Fact) string {
	type kv struct {
		id int
		s  State
	}
	pairs := make([]kv, 0, len(f))
	for b, s := range f {
		pairs = append(pairs, kv{e.id(b), s})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].id < pairs[j].id })
	var sb strings.Builder
	for _, p := range pairs {
		fmt.Fprintf(&sb, "%d:%d;", p.id, p.s)
	}
	return sb.String()
}

func (e *Engine) envKey(env map[*memmod.Block]memmod.ValueSet) string {
	ids := make([]int, 0, len(env))
	byID := make(map[int]*memmod.Block, len(env))
	for b := range env {
		n := e.id(b)
		ids = append(ids, n)
		byID[n] = b
	}
	sort.Ints(ids)
	var sb strings.Builder
	for _, n := range ids {
		fmt.Fprintf(&sb, "%d=[", n)
		for _, l := range env[byID[n]].Locs() {
			l = l.Resolve()
			fmt.Fprintf(&sb, "%d+%d*%d,", e.id(l.Base.Representative()), l.Off, l.Stride)
		}
		sb.WriteString("];")
	}
	return sb.String()
}
