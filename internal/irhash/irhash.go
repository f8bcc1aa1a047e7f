// Package irhash computes stable content hashes of a program's
// normalized IR, the identity half of the content-addressed analysis
// cache (internal/store, cmd/wlpad). See doc.go for the full contract.
package irhash

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"reflect"
	"slices"
	"sort"
	"strconv"

	"wlpa/internal/cast"
	"wlpa/internal/cfg"
	"wlpa/internal/ctok"
	"wlpa/internal/ctype"
	"wlpa/internal/sem"
)

// Proc is the hash record of one defined procedure.
type Proc struct {
	// Name is the procedure name.
	Name string
	// IR is the digest of the procedure's own normalized flow graph
	// (nodes in reverse postorder, expressions, positions, locals,
	// formals). It changes exactly when the frontend produces a
	// different flow graph for the procedure.
	IR string
	// Closure is the digest of the procedure's transitive static call
	// closure: its own IR plus the Closure of every (possibly indirect)
	// callee, condensed over call-graph SCCs so that recursion is
	// well-defined. An edit to any procedure the analysis of this one
	// could consult changes Closure.
	Closure string
}

// Program is the full hash record of one translation unit after
// frontend normalization (preprocess, parse, typecheck, flow-graph
// construction).
type Program struct {
	// Entry is the entry file name.
	Entry string
	// Globals digests everything outside procedure bodies that the
	// analysis consumes: global declarations and their static
	// initializers, string literals, and extern (library) declarations.
	// Every per-procedure cache key includes it — globals seed main's
	// input domain, so an edit to them conservatively invalidates
	// everything.
	Globals string
	// Procs holds the per-procedure records, sorted by name.
	Procs []Proc
	// Root is the whole-program digest (Entry, Globals, and every
	// procedure's IR). Two runs over byte-identical normalized IR have
	// equal Roots; this keys the program-level solution cache.
	Root string

	byName map[string]*Proc
}

// ProcHash returns the record for the named procedure, or nil.
func (p *Program) ProcHash(name string) *Proc { return p.byName[name] }

// Hash computes the hash record of a checked program. The flow graphs
// are built independently of any analysis instance, so hashing a
// request does not require running the engine.
func Hash(prog *sem.Program) (*Program, error) {
	procs, err := cfg.BuildAll(prog.Funcs)
	if err != nil {
		return nil, err
	}
	return HashProcs(prog, procs), nil
}

// HashProcs is Hash for callers that already hold built flow graphs.
func HashProcs(prog *sem.Program, procs map[*cast.FuncDecl]*cfg.Proc) *Program {
	// Size the symbol memo for every global, extern and local once.
	nsyms := len(prog.Globals) + len(prog.Externs)
	for _, p := range procs {
		nsyms += len(p.Locals)
	}
	r := &renderer{
		memo:  make([]byte, 0, 64*nsyms),
		syms:  make(map[*cast.Symbol]span, nsyms),
		types: make(map[*ctype.Type]span),
		h:     sha256.New(),
	}
	out := &Program{byName: make(map[string]*Proc, len(procs))}
	if prog.Main != nil {
		out.Entry = prog.Main.Name
	}
	r.globals(prog)
	out.Globals = r.digest("globals")

	// Per-procedure IR digests, in name order.
	type procIR struct {
		name string
		proc *cfg.Proc
		ir   string
	}
	list := make([]procIR, 0, len(procs))
	for fd, p := range procs {
		r.proc(p)
		list = append(list, procIR{fd.Name, p, r.digest("proc")})
	}
	sort.Slice(list, func(i, j int) bool { return list[i].name < list[j].name })
	// keyIR[i] is "name=IR", the line procedure i contributes to the
	// closure and root payloads.
	keyIR := make([]string, len(list))
	for i, e := range list {
		keyIR[i] = e.name + "=" + e.ir
	}

	// Static call graph over name-indexed procedures. Indirect calls
	// conservatively reach every address-taken defined function.
	idx := make(map[string]int, len(list))
	for i, e := range list {
		idx[e.name] = i
	}
	addrTaken := addressTaken(prog, procs)
	var addrIdx []int
	for _, name := range addrTaken {
		if i, ok := idx[name]; ok {
			addrIdx = append(addrIdx, i)
		}
	}
	adj := make([][]int, len(list))
	mark := make([]int, len(list)) // mark[j] == i+1: edge i->j added
	for i, e := range list {
		add := func(j int) {
			if mark[j] != i+1 {
				mark[j] = i + 1
				adj[i] = append(adj[i], j)
			}
		}
		for _, nd := range e.proc.Nodes {
			if nd.Kind != cfg.CallNode {
				continue
			}
			if nd.Direct != nil {
				if j, ok := idx[nd.Direct.Name]; ok {
					add(j)
				}
				continue
			}
			for _, j := range addrIdx {
				add(j)
			}
		}
		slices.Sort(adj[i])
	}

	// Closure digests over the SCC condensation: members of one SCC
	// share a closure digest built from every member's IR plus the
	// closures of all out-of-SCC callees. Callee components are built
	// before a component gathers its lines, so the reused line slices are
	// never in use by two components at once.
	comp, comps := cfg.SCC(len(list), func(i int) []int { return adj[i] })
	closure := make([]string, len(list))
	keyClosure := make([]string, len(list)) // "name=Closure"
	done := make([]bool, len(comps))
	var irs, ext []string
	var build func(c int)
	build = func(c int) {
		if done[c] {
			return
		}
		done[c] = true
		members := comps[c]
		for _, i := range members {
			for _, j := range adj[i] {
				if comp[j] != c {
					build(comp[j])
				}
			}
		}
		irs, ext = irs[:0], ext[:0]
		for _, i := range members {
			irs = append(irs, keyIR[i])
			for _, j := range adj[i] {
				if comp[j] != c {
					ext = append(ext, keyClosure[j])
				}
			}
		}
		slices.Sort(irs)
		slices.Sort(ext)
		r.lines(irs).str("\n--\n").lines(slices.Compact(ext))
		d := r.digest("closure")
		for _, i := range members {
			closure[i] = d
			keyClosure[i] = list[i].name + "=" + d
		}
	}
	for c := range comps {
		build(c)
	}

	out.Procs = make([]Proc, len(list))
	for i, e := range list {
		out.Procs[i] = Proc{Name: e.name, IR: e.ir, Closure: closure[i]}
		out.byName[e.name] = &out.Procs[i]
	}
	r.str(out.Entry).byte('\n').str(out.Globals).byte('\n').lines(keyIR)
	out.Root = r.digest("program")
	return out
}

// renderer renders a program's IR deterministically into one reused
// buffer and hashes it. Within one HashProcs call it renders each
// symbol and each type once: later uses copy the remembered bytes.
type renderer struct {
	buf []byte // the payload being rendered
	hdr []byte // the digest header being rendered

	// memo holds the renderings of symbols and types back to back;
	// syms and types locate each one in it.
	memo  []byte
	syms  map[*cast.Symbol]span
	types map[*ctype.Type]span

	h   hash.Hash
	sum [sha256.Size]byte
}

// span locates one rendering in renderer.memo.
type span struct{ start, end int }

// digest hashes the rendered payload, domain-separated, to a hex
// string and empties the buffer for the next payload.
func (r *renderer) digest(domain string) string {
	r.hdr = append(r.hdr[:0], "wlpa/irhash/v1 "...)
	r.hdr = append(r.hdr, domain...)
	r.hdr = append(r.hdr, ' ')
	r.hdr = strconv.AppendInt(r.hdr, int64(len(r.buf)), 10)
	r.hdr = append(r.hdr, '\n')
	r.h.Reset()
	r.h.Write(r.hdr)
	r.h.Write(r.buf)
	r.buf = r.buf[:0]
	return hex.EncodeToString(r.h.Sum(r.sum[:0]))
}

// The rendering primitives append to the payload and return r, so
// that one line of code renders one line of payload.
func (r *renderer) str(s string) *renderer   { r.buf = append(r.buf, s...); return r }
func (r *renderer) byte(c byte) *renderer    { r.buf = append(r.buf, c); return r }
func (r *renderer) int(v int64) *renderer    { r.buf = strconv.AppendInt(r.buf, v, 10); return r }
func (r *renderer) bool(v bool) *renderer    { r.buf = strconv.AppendBool(r.buf, v); return r }
func (r *renderer) quote(s string) *renderer { r.buf = strconv.AppendQuote(r.buf, s); return r }

// lines renders ss joined by newlines.
func (r *renderer) lines(ss []string) *renderer {
	for i, s := range ss {
		if i > 0 {
			r.byte('\n')
		}
		r.str(s)
	}
	return r
}

// proc renders a flow graph: signature, locals, then every node in
// reverse postorder with its expressions, positions and successor IDs.
// Positions are part of the rendering on purpose — analysis outputs
// (diagnostics, heap block names) embed them, so a cache entry must
// not survive a position change.
func (r *renderer) proc(p *cfg.Proc) {
	r.str("proc ").str(p.Name).byte('\n')
	if p.Fn != nil {
		for _, prm := range p.Fn.Params {
			r.str("param ").sym(prm.Sym).byte('\n')
		}
		r.str("type ").typ(p.Fn.Type).byte('\n')
	}
	for _, l := range p.Locals {
		r.str("local ").sym(l).byte('\n')
	}
	for _, nd := range p.Nodes {
		r.byte('n').int(int64(nd.ID)).byte(' ').str(nd.Kind.String()).str(" @").pos(nd.Pos).str(" succs=")
		for i, s := range nd.Succs {
			if i > 0 {
				r.byte(',')
			}
			r.int(int64(s.ID))
		}
		r.byte('\n')
		switch nd.Kind {
		case cfg.AssignNode:
			r.str("  dst=").expr(nd.Dst).str(" src=").expr(nd.Src).
				str(" size=").int(nd.Size).str(" agg=").bool(nd.Aggregate).byte('\n')
		case cfg.CallNode:
			if nd.Direct != nil {
				r.str("  call ").sym(nd.Direct).byte('\n')
			} else {
				r.str("  call fun=").expr(nd.Fun).byte('\n')
			}
			for _, a := range nd.Args {
				r.str("  arg ").expr(a).byte('\n')
			}
			if nd.RetDst != nil {
				r.str("  ret ").expr(nd.RetDst).byte('\n')
			}
		}
	}
}

// pos renders a position as ctok.Pos.String does.
func (r *renderer) pos(p ctok.Pos) *renderer {
	if p.File != "" {
		r.str(p.File).byte(':')
	}
	return r.int(int64(p.Line)).byte(':').int(int64(p.Col))
}

// sym renders a symbol unambiguously: name, scope disambiguator,
// storage and type.
func (r *renderer) sym(s *cast.Symbol) *renderer {
	if s == nil {
		return r.str("<nil>")
	}
	sp, ok := r.syms[s]
	if !ok {
		ts := r.typeSpan(s.Type)
		start := len(r.memo)
		r.memo = append(r.memo, s.Name...)
		r.memo = append(r.memo, '#')
		r.memo = strconv.AppendInt(r.memo, int64(s.Uniq), 10)
		r.memo = append(r.memo, "/g="...)
		r.memo = strconv.AppendBool(r.memo, s.Global)
		r.memo = append(r.memo, ",s="...)
		r.memo = strconv.AppendBool(r.memo, s.Static)
		r.memo = append(r.memo, ':')
		r.memo = append(r.memo, r.memo[ts.start:ts.end]...)
		sp = span{start, len(r.memo)}
		r.syms[s] = sp
	}
	r.buf = append(r.buf, r.memo[sp.start:sp.end]...)
	return r
}

func (r *renderer) typ(t *ctype.Type) *renderer {
	sp := r.typeSpan(t)
	r.buf = append(r.buf, r.memo[sp.start:sp.end]...)
	return r
}

// typeSpan locates t's rendering in memo, rendering it on first use.
func (r *renderer) typeSpan(t *ctype.Type) span {
	sp, ok := r.types[t]
	if !ok {
		start := len(r.memo)
		if t == nil {
			r.memo = append(r.memo, "<nil>"...)
		} else {
			r.memo = append(r.memo, t.String()...)
		}
		sp = span{start, len(r.memo)}
		r.types[t] = sp
	}
	return sp
}

// expr renders an IR expression with fully disambiguated symbols
// (cfg.Expr.String prints bare names, which shadowed locals share).
func (r *renderer) expr(e *cfg.Expr) *renderer {
	if e.IsEmpty() {
		return r.str("bot")
	}
	r.byte('(')
	for i := range e.Terms {
		t := &e.Terms[i]
		if i > 0 {
			r.byte('|')
		}
		r.byte('(')
		switch t.Kind {
		case cfg.TermVar:
			r.byte('&').sym(t.Sym)
		case cfg.TermFunc:
			r.str("fn:").sym(t.Sym)
		case cfg.TermStr:
			r.str("str").int(int64(t.StrID)).byte('=').quote(t.StrVal)
		case cfg.TermDeref:
			r.byte('*').expr(t.Base)
		case cfg.TermNull:
			r.str("null")
		}
		r.byte('+').int(t.Off).byte('%').int(t.Stride).byte(')')
	}
	return r.byte(')')
}

// globals renders the extra-procedural program surface: global
// declarations and their static initializers, string literals, and
// extern (library) declarations.
func (r *renderer) globals(prog *sem.Program) {
	for _, g := range prog.Globals {
		r.str("global ").sym(g).byte('\n')
	}
	for _, vd := range prog.GlobalInits {
		r.str("init ").sym(vd.Sym).str(" = ").ast(vd.Init).byte('\n')
	}
	strIDs := make([]int, 0, len(prog.Strings))
	for id := range prog.Strings {
		strIDs = append(strIDs, id)
	}
	slices.Sort(strIDs)
	for _, id := range strIDs {
		r.str("str ").int(int64(id)).byte(' ').quote(prog.Strings[id].Value).byte('\n')
	}
	// Sorting by name sorts the "extern <name> ..." lines: names are
	// unique, and the space after a name sorts below every identifier
	// byte.
	externs := make([]string, 0, len(prog.Externs))
	for name := range prog.Externs {
		externs = append(externs, name)
	}
	slices.Sort(externs)
	for _, name := range externs {
		r.str("extern ").str(name).byte(' ').sym(prog.Externs[name]).byte('\n')
	}
}

// ast renders a typed AST expression (global initializers keep their
// AST form; procedure bodies are hashed via the flow graph).
func (r *renderer) ast(e cast.Expr) *renderer {
	switch e := e.(type) {
	case nil:
		return r.str("<nil>")
	case *cast.Ident:
		return r.str("id:").sym(e.Sym)
	case *cast.IntLit:
		return r.str("int:").int(e.Value)
	case *cast.FloatLit:
		r.buf = strconv.AppendFloat(append(r.buf, "float:"...), e.Value, 'g', -1, 64)
		return r
	case *cast.StrLit:
		return r.str("str").int(int64(e.ID)).byte(':').quote(e.Value)
	case *cast.Unary:
		return r.byte('(').str(e.Op.String()).byte(' ').ast(e.X).byte(')')
	case *cast.Binary:
		return r.byte('(').ast(e.L).byte(' ').str(e.Op.String()).byte(' ').ast(e.R).byte(')')
	case *cast.Assign:
		return r.byte('(').ast(e.L).str(" =[").int(int64(e.Op)).str("] ").ast(e.R).byte(')')
	case *cast.Cond:
		return r.byte('(').ast(e.C).str(" ? ").ast(e.T).str(" : ").ast(e.F).byte(')')
	case *cast.Call:
		r.str("call(").ast(e.Fun).str(")(")
		for i, a := range e.Args {
			if i > 0 {
				r.byte(',')
			}
			r.ast(a)
		}
		return r.byte(')')
	case *cast.Index:
		return r.byte('(').ast(e.X).byte('[').ast(e.I).str("])")
	case *cast.Member:
		return r.byte('(').ast(e.X).byte('.').str(e.Name).str(" arrow=").bool(e.Arrow).byte(')')
	case *cast.Cast:
		return r.str("(cast ").typ(e.To).byte(' ').ast(e.X).byte(')')
	case *cast.SizeofExpr:
		return r.str("sizeof(").ast(e.X).byte(')')
	case *cast.SizeofType:
		return r.str("sizeof-t(").typ(e.Of).byte(')')
	case *cast.Comma:
		return r.byte('(').ast(e.L).str(" , ").ast(e.R).byte(')')
	case *cast.InitList:
		r.byte('{')
		for i, x := range e.Elems {
			if i > 0 {
				r.byte(',')
			}
			r.ast(x)
		}
		return r.byte('}')
	default:
		return r.byte('<').str(reflect.TypeOf(e).String()).byte('>')
	}
}

// addressTaken returns (sorted) the names of defined functions whose
// address appears as a value anywhere in the program — the conservative
// indirect-call target set used for closure edges.
func addressTaken(prog *sem.Program, procs map[*cast.FuncDecl]*cfg.Proc) []string {
	defined := map[string]bool{}
	for _, fd := range prog.Funcs {
		defined[fd.Name] = true
	}
	seen := map[string]bool{}
	var visit func(e *cfg.Expr)
	visit = func(e *cfg.Expr) {
		if e == nil {
			return
		}
		for _, t := range e.Terms {
			switch t.Kind {
			case cfg.TermFunc:
				if t.Sym != nil && defined[t.Sym.Name] {
					seen[t.Sym.Name] = true
				}
			case cfg.TermDeref:
				visit(t.Base)
			}
		}
	}
	for _, p := range procs {
		for _, nd := range p.Nodes {
			visit(nd.Dst)
			visit(nd.Src)
			visit(nd.Fun)
			for _, a := range nd.Args {
				visit(a)
			}
			visit(nd.RetDst)
		}
	}
	var visitAST func(e cast.Expr)
	visitAST = func(e cast.Expr) {
		switch e := e.(type) {
		case *cast.Ident:
			if e.Sym != nil && e.Sym.Kind == cast.SymFunc && defined[e.Sym.Name] {
				seen[e.Sym.Name] = true
			}
		case *cast.Unary:
			visitAST(e.X)
		case *cast.Binary:
			visitAST(e.L)
			visitAST(e.R)
		case *cast.Assign:
			visitAST(e.L)
			visitAST(e.R)
		case *cast.Cond:
			visitAST(e.C)
			visitAST(e.T)
			visitAST(e.F)
		case *cast.Call:
			visitAST(e.Fun)
			for _, a := range e.Args {
				visitAST(a)
			}
		case *cast.Index:
			visitAST(e.X)
			visitAST(e.I)
		case *cast.Member:
			visitAST(e.X)
		case *cast.Cast:
			visitAST(e.X)
		case *cast.Comma:
			visitAST(e.L)
			visitAST(e.R)
		case *cast.InitList:
			for _, x := range e.Elems {
				visitAST(x)
			}
		}
	}
	for _, vd := range prog.GlobalInits {
		visitAST(vd.Init)
	}
	var out []string
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
