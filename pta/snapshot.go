package pta

// Snapshot is the serialized, self-contained form of a converged
// analysis Result, built for the content-addressed cache behind
// cmd/wlpad (internal/store). It answers the same query surface as a
// live Result — PointsTo, PointsToAt, MayAlias, Describe, CallGraph,
// ModRefDump, and optionally checker diagnostics — without re-running
// the worklist engine, and its encoded bytes are deterministic: two
// snapshots of the same program under the same options are
// byte-identical (the bit-identity guarantee tested in
// snapshot_test.go and relied on by the daemon's warm-cache path).
//
// Per the PR 7 rule, the format contains only symbolic names (block
// names, procedure names, source positions) — never memmod.LocIDs or
// any other run-scoped identifier.
//
// PointsToAt answers are precomputed per (procedure, flow node,
// variable, dereference depth 0..MaxQueryDepth) with two compressions:
// answers are interned in a shared pool (Snapshot.Answers, id 0 =
// empty), and a per-variable answer vector that is constant across all
// nodes of a procedure is stored as a single element. The builder
// computes an answer only where one can differ, and pays for each
// distinct answer once. One pass over each PTF's records
// (analysis.PTF.RecordSites) lists, per flow node, the representative
// bases whose contents can read differently there than at the node's
// immediate dominator: the bases recorded at the node.
// Per variable and depth, in every context, the builder keeps the
// symbolic set the depth reads at each node:
//
//   - A variable whose base is listed at no node of any context reads
//     the empty set at every node and depth, and is stored as
//     [[0],[0],[0]] with no lookup. The test follows the extended
//     parameter VarLoc binds a global to, and never consults C types.
//   - At depth 0 a node copies its immediate dominator's sets and
//     answer id unless some context lists the variable's own base
//     there. At depth d it copies them unless depth d−1 was recomputed
//     there, or some context lists there the base of a member of its
//     kept depth-(d−1) set. Depth d dereferences those kept sets; it
//     never walks again from the variable.
//   - Every other answer is computed in two steps: the symbolic union
//     over contexts, then its concretized, sorted names. A build
//     concretizes each distinct union once and reuses its pool id.
//
// The copies are exact, not approximations: contentsAt reads only the
// rows of locations that overlap the one asked about, which share its
// representative base, and its strong-update barrier reads only that
// location's own rows. With no listed change of the base at a node,
// every such lookup finds the record it finds at the dominator, so the
// set is the same, member for member and in the same order. The pool numbers
// answers in the order they first appear, so the fill order is part of
// the bytes: it stays depth-outer and node-inner in reverse postorder,
// as in a build that computed every answer (building a node's three
// depths at once would renumber the pool), and a copied answer's id was
// interned at its dominator, earlier in that order. So every id, and
// every encoded byte, is what computing every answer would give.
//
// The live Result.PointsToAt computes the same answers in one step
// (pointsToAtNode); the snapshot tests compare the two at every node.

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"wlpa/internal/analysis"
	"wlpa/internal/cast"
	"wlpa/internal/cfg"
	"wlpa/internal/check"
	"wlpa/internal/ctok"
	"wlpa/internal/memmod"
)

// SnapshotFormat versions the serialized layout. DecodeSnapshot rejects
// any other value, so a format change invalidates every cached entry
// (the daemon also folds this constant into its cache keys).
const SnapshotFormat = "wlpa/snapshot/v1"

// MaxQueryDepth is the deepest dereference precomputed for
// Snapshot.PointsToAt ("**pp"). Deeper queries return nil; the live
// Result surface documents the same two-star limit.
const MaxQueryDepth = 2

// Snapshot is the cached query surface. See the package comment above
// for the encoding invariants.
type Snapshot struct {
	Format      string `json:"format"`
	Fingerprint string `json:"fingerprint,omitempty"` // opaque cache identity recorded by the builder

	Globals []GlobalSnap  `json:"globals"` // declaration order
	Procs   []ProcSnap    `json:"procs"`   // sorted by name
	Answers [][]string    `json:"answers"` // interned answer pool; Answers[0] is empty
	Calls   []CallEdge    `json:"calls"`
	ModRef  []string      `json:"mod_ref"`
	Stats   SnapshotStats `json:"stats"`

	HasDiags bool           `json:"has_diags"`
	Diags    []SnapshotDiag `json:"diags,omitempty"`
}

// GlobalSnap is one global variable's exit-state points-to set.
type GlobalSnap struct {
	Name       string   `json:"name"`
	Pointerish bool     `json:"pointerish"`
	Targets    []string `json:"targets"`
}

// ProcSnap holds one analyzed procedure's per-node query answers.
// Lines/Cols run parallel to the procedure's flow nodes in reverse
// postorder (entry first), replicating the live query-point resolution.
type ProcSnap struct {
	Name  string    `json:"name"`
	Lines []int     `json:"lines"`
	Cols  []int     `json:"cols"`
	Vars  []VarSnap `json:"vars"`
}

// VarSnap maps one queryable variable (local, formal, or global — in
// that precedence order, first name wins, matching the live resolver)
// to its answer ids. Depths[d][i] is the answer-pool id at node i for d
// leading stars; a single-element vector means the answer is the same
// at every node.
type VarSnap struct {
	Name   string                   `json:"name"`
	Depths [MaxQueryDepth + 1][]int `json:"depths"`
}

// SnapshotStats is the deterministic subset of analysis.Stats (wall
// times are excluded — they vary run to run and would break
// bit-identity).
type SnapshotStats struct {
	Procedures int  `json:"procedures"`
	PTFs       int  `json:"ptfs"`
	Params     int  `json:"params"`
	PTFsCapped bool `json:"ptfs_capped"`
}

// SnapshotDiag is one checker diagnostic in serialized form.
type SnapshotDiag struct {
	Check    string   `json:"check"`
	Severity string   `json:"severity"`
	File     string   `json:"file"`
	Line     int      `json:"line"`
	Col      int      `json:"col"`
	Proc     string   `json:"proc"`
	Message  string   `json:"message"`
	Contexts int      `json:"contexts"`
	Trace    []string `json:"trace,omitempty"`
}

// SnapshotOptions configure Result.Snapshot.
type SnapshotOptions struct {
	// Fingerprint is an opaque identity string (typically the cache
	// key's hex form) recorded in the snapshot for observability.
	Fingerprint string
	// Diagnostics runs the checker suite and embeds its findings.
	Diagnostics bool
	// Check configures the embedded checker run (nil = all passes).
	Check *CheckOptions
}

// Snapshot freezes the Result into its serializable form.
func (r *Result) Snapshot(opts *SnapshotOptions) (*Snapshot, error) {
	if opts == nil {
		opts = &SnapshotOptions{}
	}
	s := &Snapshot{
		Format:      SnapshotFormat,
		Fingerprint: opts.Fingerprint,
	}
	st := r.an.Stats()
	s.Stats = SnapshotStats{
		Procedures: st.Procedures,
		PTFs:       st.PTFs,
		Params:     st.Params,
		PTFsCapped: st.PTFsCapped,
	}

	seenGlobal := map[string]bool{}
	for _, g := range r.prog.Globals {
		if seenGlobal[g.Name] {
			continue // findGlobal resolves to the first declaration
		}
		seenGlobal[g.Name] = true
		s.Globals = append(s.Globals, GlobalSnap{
			Name:       g.Name,
			Pointerish: pointerish(g.Type),
			Targets:    r.PointsTo(g.Name),
		})
	}

	pool := newAnswerPool(r)
	for _, proc := range r.Procedures() {
		ps, err := r.snapProc(proc, pool)
		if err != nil {
			return nil, err
		}
		s.Procs = append(s.Procs, *ps)
	}
	s.Answers = pool.list
	s.Calls = r.CallGraph()
	s.ModRef = r.ModRefDump()

	if opts.Diagnostics {
		diags, err := r.Check(opts.Check)
		if err != nil {
			return nil, err
		}
		s.SetDiagnostics(diags)
	}
	return s, nil
}

// SetDiagnostics embeds checker findings in the snapshot, replacing any
// it holds, exactly as SnapshotOptions.Diagnostics does: a caller that
// runs Result.Check itself (the daemon, to time it) builds the snapshot
// without diagnostics and then sets them, and the encoded bytes are the
// same.
func (s *Snapshot) SetDiagnostics(diags []Diagnostic) {
	s.HasDiags = true
	s.Diags = make([]SnapshotDiag, 0, len(diags))
	for _, d := range diags {
		s.Diags = append(s.Diags, SnapshotDiag{
			Check:    d.Check,
			Severity: d.Sev.String(),
			File:     d.Pos.File,
			Line:     d.Pos.Line,
			Col:      d.Pos.Col,
			Proc:     d.Proc,
			Message:  d.Message,
			Contexts: d.Contexts,
			Trace:    d.Trace,
		})
	}
}

// snapProc precomputes one procedure's answer vectors.
func (r *Result) snapProc(proc string, pool *answerPool) (*ProcSnap, error) {
	cproc := r.an.Proc(proc)
	if cproc == nil {
		return nil, fmt.Errorf("pta: analyzed procedure %q has no flow graph", proc)
	}
	n := len(cproc.Nodes)
	ps := &ProcSnap{Name: proc, Lines: make([]int, n), Cols: make([]int, n)}
	for i, nd := range cproc.Nodes {
		ps.Lines[i], ps.Cols[i] = nd.Pos.Line, nd.Pos.Col
	}

	var syms []*cast.Symbol
	seen := make(map[string]bool, len(cproc.Locals)+len(cproc.Fn.Params)+len(r.prog.Globals))
	addSym := func(sym *cast.Symbol) {
		if sym != nil && !seen[sym.Name] {
			seen[sym.Name] = true
			syms = append(syms, sym)
		}
	}
	for _, l := range cproc.Locals {
		addSym(l)
	}
	for _, p := range cproc.Fn.Params {
		addSym(p.Sym)
	}
	for _, g := range r.prog.Globals {
		addSym(g)
	}

	b := newProcBuilder(r, cproc, r.an.PTFs(proc), pool)
	for _, sym := range syms {
		ps.Vars = append(ps.Vars, b.varSnap(sym))
	}
	return ps, nil
}

// procBuilder computes one procedure's answer vectors. For one variable
// it keeps, per flow node and context, the symbolic set of the depth
// being built and of the depth before it, so depth d dereferences the
// kept depth-(d−1) sets instead of walking again from the variable.
type procBuilder struct {
	r     *Result
	nodes []*cfg.Node
	ptfs  []*analysis.PTF
	pool  *answerPool
	// sites[c][id] lists the bases that can read differently at node id
	// than at its immediate dominator in context c (PTF.RecordSites).
	sites [][][]*memmod.Block

	locs      []memmod.LocSet   // per context: the variable's location
	prev, cur []memmod.ValueSet // per node × context: sets of depth d−1, d
	prevNew   []bool            // per node: depth d−1 was recomputed there
	curNew    []bool            // per node: depth d is recomputed there
}

func newProcBuilder(r *Result, cproc *cfg.Proc, ptfs []*analysis.PTF, pool *answerPool) *procBuilder {
	n, k := len(cproc.Nodes), len(ptfs)
	b := &procBuilder{
		r: r, nodes: cproc.Nodes, ptfs: ptfs, pool: pool,
		sites:   make([][][]*memmod.Block, k),
		locs:    make([]memmod.LocSet, k),
		prev:    make([]memmod.ValueSet, n*k),
		cur:     make([]memmod.ValueSet, n*k),
		prevNew: make([]bool, n),
		curNew:  make([]bool, n),
	}
	for c, p := range ptfs {
		b.sites[c] = p.RecordSites()
	}
	return b
}

// varSnap builds sym's answer vectors by the rules of the package
// comment, depth-outer and node-inner in reverse postorder.
func (b *procBuilder) varSnap(sym *cast.Symbol) VarSnap {
	vs := VarSnap{Name: sym.Name}
	for c, p := range b.ptfs {
		b.locs[c] = b.r.an.VarLoc(p, sym, 0, 0).Resolve()
	}
	held := false
	for i, nd := range b.nodes {
		b.prevNew[i] = false
		for c := range b.ptfs {
			if slices.Contains(b.sites[c][nd.ID], b.locs[c].Base.Representative()) {
				b.prevNew[i], held = true, true
				break
			}
		}
	}
	if !held {
		for d := range vs.Depths {
			vs.Depths[d] = []int{0}
		}
		return vs
	}
	for d := 0; d <= MaxQueryDepth; d++ {
		vs.Depths[d] = b.depth(d)
		b.prev, b.cur = b.cur, b.prev
		b.prevNew, b.curNew = b.curNew, b.prevNew
	}
	return vs
}

// depth fills cur and curNew for depth d from prev and prevNew (at
// depth 0, prevNew marks the nodes that list the variable's base) and
// returns the depth's answer vector.
func (b *procBuilder) depth(d int) []int {
	k := len(b.ptfs)
	ids := make([]int, len(b.nodes))
	constant := true
	for i, nd := range b.nodes {
		sets := b.cur[i*k : (i+1)*k]
		if i > 0 && nd.Idom != nil && !b.prevNew[i] && (d == 0 || !b.readsChanged(i)) {
			copy(sets, b.cur[nd.Idom.ID*k:(nd.Idom.ID+1)*k])
			ids[i] = ids[nd.Idom.ID]
			b.curNew[i] = false
		} else {
			var union memmod.ValueSet
			for c, p := range b.ptfs {
				if d == 0 {
					sets[c] = b.r.an.ContentsAfter(p, b.locs[c], nd)
				} else {
					var next memmod.ValueSet
					for _, l := range b.prev[i*k+c].Locs() {
						next.AddAll(b.r.an.ContentsAfter(p, l, nd))
					}
					sets[c] = next
				}
				union.AddAll(sets[c])
			}
			ids[i] = b.pool.unionID(union.WithoutNull())
			b.curNew[i] = true
		}
		if ids[i] != ids[0] {
			constant = false
		}
	}
	if constant {
		ids = ids[:1]
	}
	return ids
}

// readsChanged reports whether, in some context, RecordSites lists at
// node i the base of a member of that context's kept depth-(d−1) set.
func (b *procBuilder) readsChanged(i int) bool {
	k := len(b.ptfs)
	id := b.nodes[i].ID
	for c := range b.ptfs {
		sites := b.sites[c][id]
		if len(sites) == 0 {
			continue
		}
		for _, l := range b.prev[i*k+c].Locs() {
			if slices.Contains(sites, l.Base.Representative()) {
				return true
			}
		}
	}
	return false
}

// answerPool interns answers (id 0 is the empty answer) and remembers
// the id of every symbolic union it has concretized, so one snapshot
// build concretizes each distinct union once.
type answerPool struct {
	r      *Result
	ids    map[string]int
	list   [][]string
	unions map[uint64][]pooledUnion // by memmod.ValueSet.Fingerprint
}

type pooledUnion struct {
	vals memmod.ValueSet
	id   int
}

func newAnswerPool(r *Result) *answerPool {
	return &answerPool{
		r:      r,
		ids:    map[string]int{"0\x00": 0},
		list:   [][]string{{}},
		unions: map[uint64][]pooledUnion{},
	}
}

// unionID returns the id of a symbolic union's answer. The answer
// depends only on the union and the converged parameter bindings that
// Concretize reads, so equal unions share an id. A fingerprint hit is
// confirmed member by member in order, not as a set: Concretize stops
// 64 bindings deep and expands each member once, so past that depth
// its result can depend on member order. On the suite programs this
// costs at most five extra concretizations per build.
func (p *answerPool) unionID(vals memmod.ValueSet) int {
	fp := vals.Fingerprint()
	for _, u := range p.unions[fp] {
		if slices.Equal(u.vals.Locs(), vals.Locs()) {
			return u.id
		}
	}
	id := p.intern(p.r.concreteNames(vals))
	p.unions[fp] = append(p.unions[fp], pooledUnion{vals: vals, id: id})
	return id
}

func (p *answerPool) intern(names []string) int {
	key := strconv.Itoa(len(names)) + "\x00" + strings.Join(names, "\x1f")
	if id, ok := p.ids[key]; ok {
		return id
	}
	id := len(p.list)
	p.ids[key] = id
	p.list = append(p.list, names)
	return id
}

// Encode renders the snapshot as canonical JSON: struct field order is
// fixed, every list is deterministically ordered, and no map appears in
// the payload, so equal snapshots encode to equal bytes.
func (s *Snapshot) Encode() ([]byte, error) {
	return json.Marshal(s)
}

// DecodeSnapshot parses an encoded snapshot, rejecting unknown formats
// and answer vectors that PointsToAt could not index: a procedure's
// cols must run parallel to its lines, every depth vector must hold one
// id or one per line, and every id must name an answer.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("pta: decoding snapshot: %w", err)
	}
	if s.Format != SnapshotFormat {
		return nil, fmt.Errorf("pta: snapshot format %q, want %q", s.Format, SnapshotFormat)
	}
	for i := range s.Procs {
		ps := &s.Procs[i]
		if len(ps.Cols) != len(ps.Lines) {
			return nil, fmt.Errorf("pta: snapshot procedure %q: %d cols for %d lines", ps.Name, len(ps.Cols), len(ps.Lines))
		}
		for j := range ps.Vars {
			vs := &ps.Vars[j]
			for d, ids := range vs.Depths {
				if len(ids) != 1 && len(ids) != len(ps.Lines) {
					return nil, fmt.Errorf("pta: snapshot procedure %q variable %q: depth %d holds %d ids for %d lines",
						ps.Name, vs.Name, d, len(ids), len(ps.Lines))
				}
				for _, id := range ids {
					if id < 0 || id >= len(s.Answers) {
						return nil, fmt.Errorf("pta: snapshot procedure %q variable %q: depth %d names answer %d of %d",
							ps.Name, vs.Name, d, id, len(s.Answers))
					}
				}
			}
		}
	}
	return &s, nil
}

// PointsTo mirrors Result.PointsTo over the frozen state.
func (s *Snapshot) PointsTo(global string) []string {
	for i := range s.Globals {
		if s.Globals[i].Name == global {
			return s.Globals[i].Targets
		}
	}
	return nil
}

// MayAlias mirrors Result.MayAlias over the frozen state.
func (s *Snapshot) MayAlias(p, q string) bool {
	set := map[string]bool{}
	for _, n := range s.PointsTo(p) {
		set[n] = true
	}
	for _, n := range s.PointsTo(q) {
		if set[n] {
			return true
		}
	}
	return false
}

// PointsToAt mirrors Result.PointsToAt over the frozen state for
// queries up to MaxQueryDepth stars; deeper queries return nil.
func (s *Snapshot) PointsToAt(proc string, line int, expr string) []string {
	stars := 0
	for stars < len(expr) && expr[stars] == '*' {
		stars++
	}
	if stars > MaxQueryDepth {
		return nil
	}
	name := expr[stars:]
	ps := s.findProc(proc)
	if ps == nil {
		return nil
	}
	var vs *VarSnap
	for i := range ps.Vars {
		if ps.Vars[i].Name == name {
			vs = &ps.Vars[i]
			break
		}
	}
	if vs == nil {
		return nil
	}
	idx := snapQueryNodeIndex(ps, line)
	ids := vs.Depths[stars]
	var id int
	switch {
	case len(ids) == 1: // constant across nodes
		id = ids[0]
	case idx < len(ids):
		id = ids[idx]
	default:
		return nil
	}
	if id < 0 || id >= len(s.Answers) || len(s.Answers[id]) == 0 {
		return nil
	}
	return s.Answers[id]
}

func (s *Snapshot) findProc(name string) *ProcSnap {
	for i := range s.Procs {
		if s.Procs[i].Name == name {
			return &s.Procs[i]
		}
	}
	return nil
}

// snapQueryNodeIndex replicates queryNodeIndex over serialized
// positions: the last node at or before the line, falling back to the
// entry node (index 0).
func snapQueryNodeIndex(ps *ProcSnap, line int) int {
	nd := -1
	for i := range ps.Lines {
		if ps.Lines[i] <= 0 || ps.Lines[i] > line {
			continue
		}
		if nd < 0 || ps.Lines[i] > ps.Lines[nd] ||
			(ps.Lines[i] == ps.Lines[nd] && ps.Cols[i] >= ps.Cols[nd]) {
			nd = i
		}
	}
	if nd < 0 {
		return 0
	}
	return nd
}

// Describe mirrors Result.Describe over the frozen state.
func (s *Snapshot) Describe() string {
	var b strings.Builder
	for i := range s.Globals {
		g := &s.Globals[i]
		if !g.Pointerish || len(g.Targets) == 0 {
			continue
		}
		fmt.Fprintf(&b, "%s -> %v\n", g.Name, g.Targets)
	}
	return b.String()
}

// ModRefDump mirrors Result.ModRefDump over the frozen state.
func (s *Snapshot) ModRefDump() []string { return s.ModRef }

// CallGraph mirrors Result.CallGraph over the frozen state.
func (s *Snapshot) CallGraph() []CallEdge { return s.Calls }

// Procedures mirrors Result.Procedures over the frozen state.
func (s *Snapshot) Procedures() []string {
	names := make([]string, 0, len(s.Procs))
	for i := range s.Procs {
		names = append(names, s.Procs[i].Name)
	}
	sort.Strings(names)
	return names
}

// Diagnostics reconstructs the embedded checker findings (nil unless
// the snapshot was built with SnapshotOptions.Diagnostics). The
// returned values render identically through RenderJSON/RenderSARIF
// and fingerprint identically for baselines.
func (s *Snapshot) Diagnostics() []Diagnostic {
	if !s.HasDiags {
		return nil
	}
	out := make([]Diagnostic, 0, len(s.Diags))
	for _, d := range s.Diags {
		sev := check.Warning
		if d.Severity == "error" {
			sev = check.Error
		}
		out = append(out, Diagnostic{
			Check:    d.Check,
			Sev:      sev,
			Pos:      ctok.Pos{File: d.File, Line: d.Line, Col: d.Col},
			Proc:     d.Proc,
			Message:  d.Message,
			Contexts: d.Contexts,
			Trace:    d.Trace,
		})
	}
	return out
}

// DomainDigests exposes the per-procedure input-domain digests of the
// converged analysis (see analysis.DomainDigests).
//
// Deprecated: only the wlpad benchmark's traced replica
// (wlpadbench/trace.go) calls it, for a per-procedure ledger the daemon
// does not have. ROADMAP item 1's benchmark PR removes it together with
// the replica.
func (r *Result) DomainDigests() map[string]string { return r.an.DomainDigests() }
