package pta

import "wlpa/internal/demand"

// DemandOptions is Result.Demand's argument; it has no fields.
//
// Deprecated: the wlpad benchmark's traced replica (wlpadbench/trace.go)
// still compiles against it. ROADMAP item 1's benchmark PR removes it
// together with the replica.
type DemandOptions struct{}

// Demand is a counting view over a Result: PointsToAt answers exactly
// Result.PointsToAt and counts the sites it answered.
//
// Deprecated: call Result.PointsToAt. The wlpad benchmark's traced
// replica (wlpadbench/trace.go) still compiles against this type;
// ROADMAP item 1's benchmark PR removes it together with the replica.
type Demand struct {
	r       *Result
	queries int
}

// Demand returns a counting query view of the result.
//
// Deprecated: call Result.PointsToAt (see the Demand type).
func (r *Result) Demand(*DemandOptions) *Demand { return &Demand{r: r} }

// Stats reports the sites answered so far in Stats.Queries.
//
// Deprecated: see the Demand type.
func (d *Demand) Stats() demand.Stats { return demand.Stats{Queries: d.queries} }

// PointsToAt returns d's Result.PointsToAt answer and counts the site.
func (d *Demand) PointsToAt(proc string, line int, expr string) []string {
	d.queries++
	return d.r.PointsToAt(proc, line, expr)
}

// QuerySite is one sampled PointsToAt site (see SampleQuerySites).
type QuerySite struct {
	Proc string `json:"proc"`
	Line int    `json:"line"`
	Expr string `json:"expr"`
}

// SampleQuerySites returns up to max deterministic PointsToAt query
// sites spread over the program: every analyzed procedure contributes
// its locals, formals and a few pointerish globals, cycled over the
// procedure's source lines and star depths 0–2, then stride-sampled
// down to max. Sites may legitimately answer empty (a non-pointer at
// that line); the point-query measurement of ptabench -json reports
// per-query cost over exactly that variety.
func (r *Result) SampleQuerySites(max int) []QuerySite {
	if max <= 0 {
		max = 32
	}
	var sites []QuerySite
	for _, proc := range r.Procedures() {
		cproc := r.an.Proc(proc)
		if cproc == nil {
			continue
		}
		var lines []int
		seenLine := map[int]bool{}
		for _, nd := range cproc.Nodes {
			if nd.Pos.IsValid() && !seenLine[nd.Pos.Line] {
				seenLine[nd.Pos.Line] = true
				lines = append(lines, nd.Pos.Line)
			}
		}
		if len(lines) == 0 {
			continue
		}
		var names []string
		seen := map[string]bool{}
		addName := func(n string) {
			if n != "" && !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
		for _, s := range cproc.Locals {
			addName(s.Name)
		}
		for _, p := range cproc.Fn.Params {
			if p.Sym != nil {
				addName(p.Sym.Name)
			}
		}
		globals := 0
		for _, g := range r.prog.Globals {
			if globals >= 8 {
				break
			}
			if pointerish(g.Type) {
				addName(g.Name)
				globals++
			}
		}
		for i, name := range names {
			expr := name
			switch i % 3 {
			case 1:
				expr = "*" + name
			case 2:
				expr = "**" + name
			}
			sites = append(sites, QuerySite{Proc: proc, Line: lines[i%len(lines)], Expr: expr})
		}
	}
	if len(sites) > max {
		stride := len(sites) / max
		out := make([]QuerySite, 0, max)
		for i := 0; i < len(sites) && len(out) < max; i += stride {
			out = append(out, sites[i])
		}
		sites = out
	}
	return sites
}
