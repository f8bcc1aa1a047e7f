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
// avoids recomputing answers at nodes that hold no points-to record in
// any PTF of the procedure: under the sparse representation a lookup
// at such a node walks the dominator tree, so its answer equals the
// immediate dominator's and is copied (analysis.PTF.RecordNodes).

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"wlpa/internal/cast"
	"wlpa/internal/check"
	"wlpa/internal/ctok"
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

	pool := newAnswerPool()
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
	return s, nil
}

// snapProc precomputes one procedure's answer vectors.
func (r *Result) snapProc(proc string, pool *answerPool) (*ProcSnap, error) {
	cproc := r.an.Proc(proc)
	if cproc == nil {
		return nil, fmt.Errorf("pta: analyzed procedure %q has no flow graph", proc)
	}
	ps := &ProcSnap{Name: proc}
	for _, nd := range cproc.Nodes {
		ps.Lines = append(ps.Lines, nd.Pos.Line)
		ps.Cols = append(ps.Cols, nd.Pos.Col)
	}

	// Nodes holding any points-to record in any context: only these
	// (plus the entry) can change an answer relative to the immediate
	// dominator.
	hot := map[int]bool{}
	for _, p := range r.an.PTFs(proc) {
		for id := range p.RecordNodes() {
			hot[id] = true
		}
	}

	var syms []*cast.Symbol
	seen := map[string]bool{}
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

	for _, sym := range syms {
		vs := VarSnap{Name: sym.Name}
		for d := 0; d <= MaxQueryDepth; d++ {
			ids := make([]int, len(cproc.Nodes))
			constant := true
			for i, nd := range cproc.Nodes {
				if i > 0 && !hot[nd.ID] && nd.Idom != nil {
					ids[i] = ids[nd.Idom.ID]
				} else {
					ids[i] = pool.intern(r.pointsToAtNode(proc, sym, d, nd))
				}
				if ids[i] != ids[0] {
					constant = false
				}
			}
			if constant {
				ids = ids[:1]
			}
			vs.Depths[d] = ids
		}
		ps.Vars = append(ps.Vars, vs)
	}
	return ps, nil
}

// answerPool interns answer slices; id 0 is the empty answer.
type answerPool struct {
	ids  map[string]int
	list [][]string
}

func newAnswerPool() *answerPool {
	return &answerPool{
		ids:  map[string]int{"0\x00": 0},
		list: [][]string{{}},
	}
}

func (p *answerPool) intern(names []string) int {
	key := fmt.Sprintf("%d\x00%s", len(names), strings.Join(names, "\x1f"))
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

// DecodeSnapshot parses an encoded snapshot, rejecting unknown formats.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("pta: decoding snapshot: %w", err)
	}
	if s.Format != SnapshotFormat {
		return nil, fmt.Errorf("pta: snapshot format %q, want %q", s.Format, SnapshotFormat)
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
