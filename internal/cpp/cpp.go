package cpp

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"wlpa/internal/ctok"
)

// Source is an in-memory file set mapping file names to contents.
type Source map[string]string

// Macro is a preprocessor macro definition.
type Macro struct {
	Name     string
	Params   []string // nil for object-like macros
	IsFunc   bool
	Variadic bool
	Body     []ctok.Token
}

// Error is a preprocessing error with a position. Err, when set, is the
// named error it is an instance of (ErrExpansion).
type Error struct {
	Pos ctok.Pos
	Msg string
	Err error
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

func (e *Error) Unwrap() error { return e.Err }

// ErrExpansion is the error (wrapped in an *Error at the invocation that
// crossed the bound) of a translation unit whose macro expansion
// outgrows its input. Macro expansion can grow exponentially: each
// #define that names the previous macro twice doubles the output, so a
// few hundred bytes can ask for gigabytes. A run may therefore expand at
// most expandPerToken tokens per token of input it read (the entry
// file, its includes, the built-in headers and predefined macros), and
// never more than maxExpansion in all. Expanding a macro costs the
// tokens its body copies plus the names it hides from rescanning, so
// macros that expand to nothing are bounded too.
var ErrExpansion = errors.New("macro expansion exceeds its budget")

const (
	expandPerToken = 64
	maxExpansion   = 1 << 21
)

type state struct {
	files  Source
	macros map[string]*Macro
	out    []ctok.Token
	depth  int
	// input counts the tokens read; expanded counts the expansion work
	// done, bounded by input (see ErrExpansion).
	input, expanded int
}

const maxIncludeDepth = 64

// outSlack is the room the output reserves beyond the entry file's own
// tokens, for the built-in headers it includes and its macro
// expansions: the headers add under 1,000 tokens to each suite program.
const outSlack = 1024

// headerTokens lexes every built-in header once per process. Every
// preprocessor run shares the slices, so they are read-only: each is
// clipped, and so is every directive line processTokens cuts from one,
// so that no append can write into them. Each is a copy of exactly its
// length, because the process keeps it.
var headerTokens = sync.OnceValues(func() (map[string][]ctok.Token, error) {
	hs := make(map[string][]ctok.Token, len(BuiltinHeaders))
	for name, src := range BuiltinHeaders {
		toks, err := ctok.Tokenize(name, src)
		if err != nil {
			return nil, err
		}
		hs[name] = append(make([]ctok.Token, 0, len(toks)), toks...)
	}
	return hs, nil
})

// Preprocess expands the translation unit rooted at entry and returns the
// resulting token stream (ending in EOF). Files named in #include <...>
// that are not present in files are resolved against the built-in libc
// headers (see headers.go); unknown headers are an error.
func Preprocess(files Source, entry string, predefined map[string]string) ([]ctok.Token, error) {
	st := &state{files: files, macros: make(map[string]*Macro)}
	for name, val := range predefined {
		toks, err := ctok.Tokenize("<predefined>", val)
		if err != nil {
			return nil, err
		}
		st.macros[name] = &Macro{Name: name, Body: toks[:len(toks)-1]}
		st.input += len(toks)
	}
	if err := st.processFile(entry, false, ctok.Pos{}); err != nil {
		return nil, err
	}
	st.out = append(st.out, ctok.Token{Kind: ctok.EOF, LeadingNewline: true})
	return st.out, nil
}

func (st *state) errorf(p ctok.Pos, format string, args ...any) error {
	return &Error{Pos: p, Msg: fmt.Sprintf(format, args...)}
}

// expand charges n tokens of macro expansion work at p, failing with
// ErrExpansion past the run's budget.
func (st *state) expand(p ctok.Pos, n int) error {
	st.expanded += n
	if st.expanded <= min(expandPerToken*st.input, maxExpansion) {
		return nil
	}
	return &Error{Pos: p, Err: ErrExpansion,
		Msg: fmt.Sprintf("%v: over %d tokens from %d tokens of input", ErrExpansion, st.expanded-n, st.input)}
}

// fileTokens returns the tokens of the file an #include at from names
// (the entry file has no position). A quoted include (system false)
// looks in the request's files before the built-in headers, an angle
// include the other way round. A built-in header's tokens are the
// shared ones (headerTokens); a request's file is lexed here.
func (st *state) fileTokens(name string, system bool, from ctok.Pos) ([]ctok.Token, error) {
	src, user := st.files[name]
	if _, builtin := BuiltinHeaders[name]; builtin && (system || !user) {
		hs, err := headerTokens()
		return hs[name], err
	}
	switch {
	case user:
		return ctok.Tokenize(name, src)
	case system:
		return nil, st.errorf(from, "system header <%s> not available", name)
	default:
		return nil, st.errorf(from, "include file %q not found", name)
	}
}

// processFile preprocesses the file an #include at from names. The
// depth limit is what stops an include cycle.
func (st *state) processFile(name string, system bool, from ctok.Pos) error {
	if st.depth >= maxIncludeDepth {
		return st.errorf(from, "#include nesting too deep (cycle including %q?)", name)
	}
	toks, err := st.fileTokens(name, system, from)
	if err != nil {
		return err
	}
	st.input += len(toks)
	if st.depth == 0 {
		st.out = make([]ctok.Token, 0, min(len(toks)+outSlack, ctok.MaxReserve))
	}
	st.depth++
	err = st.processTokens(toks)
	st.depth--
	return err
}

// condState tracks one #if level.
type condState struct {
	active     bool // tokens in the current branch are emitted
	everTaken  bool // some branch at this level was taken
	parentLive bool
	seenElse   bool
	pos        ctok.Pos
}

func (st *state) processTokens(toks []ctok.Token) error {
	var conds []condState
	live := func() bool {
		for _, c := range conds {
			if !c.active {
				return false
			}
		}
		return true
	}
	i := 0
	for i < len(toks) {
		t := toks[i]
		if t.Kind == ctok.EOF {
			break
		}
		if t.Kind == ctok.Hash && t.LeadingNewline {
			// Directive: gather tokens to end of line.
			j := i + 1
			for j < len(toks) && toks[j].Kind != ctok.EOF && !toks[j].LeadingNewline {
				j++
			}
			line := toks[i+1 : j : j]
			n, err := st.directive(t.Pos, line, &conds, live)
			if err != nil {
				return err
			}
			_ = n
			i = j
			continue
		}
		if !live() {
			i++
			continue
		}
		n, err := st.expandFrom(toks, i)
		if err != nil {
			return err
		}
		i = n
	}
	if len(conds) > 0 {
		return st.errorf(conds[len(conds)-1].pos, "unterminated #if")
	}
	return nil
}

func (st *state) directive(pos ctok.Pos, line []ctok.Token, conds *[]condState, live func() bool) (int, error) {
	if len(line) == 0 {
		return 0, nil // null directive
	}
	name := line[0].Text
	switch name {
	case "include":
		if !live() {
			return 0, nil
		}
		return 0, st.doInclude(pos, line[1:])
	case "define":
		if !live() {
			return 0, nil
		}
		return 0, st.doDefine(pos, line[1:])
	case "undef":
		if !live() {
			return 0, nil
		}
		if len(line) < 2 || line[1].Kind != ctok.Ident {
			return 0, st.errorf(pos, "#undef expects a name")
		}
		delete(st.macros, line[1].Text)
		return 0, nil
	case "ifdef", "ifndef":
		taken := false
		if live() {
			if len(line) < 2 {
				return 0, st.errorf(pos, "#%s expects a name", name)
			}
			_, defined := st.macros[line[1].Text]
			taken = defined == (name == "ifdef")
		}
		*conds = append(*conds, condState{active: taken, everTaken: taken, parentLive: live(), pos: pos})
		return 0, nil
	case "if":
		taken := false
		if live() {
			v, err := st.evalCond(pos, line[1:])
			if err != nil {
				return 0, err
			}
			taken = v != 0
		}
		*conds = append(*conds, condState{active: taken, everTaken: taken, parentLive: live(), pos: pos})
		return 0, nil
	case "elif":
		if len(*conds) == 0 {
			return 0, st.errorf(pos, "#elif without #if")
		}
		c := &(*conds)[len(*conds)-1]
		if c.seenElse {
			return 0, st.errorf(pos, "#elif after #else")
		}
		if c.everTaken || !c.parentLive {
			c.active = false
			return 0, nil
		}
		v, err := st.evalCond(pos, line[1:])
		if err != nil {
			return 0, err
		}
		c.active = v != 0
		c.everTaken = c.active
		return 0, nil
	case "else":
		if len(*conds) == 0 {
			return 0, st.errorf(pos, "#else without #if")
		}
		c := &(*conds)[len(*conds)-1]
		if c.seenElse {
			return 0, st.errorf(pos, "duplicate #else")
		}
		c.seenElse = true
		c.active = c.parentLive && !c.everTaken
		c.everTaken = true
		return 0, nil
	case "endif":
		if len(*conds) == 0 {
			return 0, st.errorf(pos, "#endif without #if")
		}
		*conds = (*conds)[:len(*conds)-1]
		return 0, nil
	case "pragma":
		return 0, nil
	case "error":
		if !live() {
			return 0, nil
		}
		var sb strings.Builder
		for _, t := range line[1:] {
			sb.WriteString(t.Text)
			sb.WriteByte(' ')
		}
		return 0, st.errorf(pos, "#error %s", strings.TrimSpace(sb.String()))
	default:
		return 0, st.errorf(pos, "unknown directive #%s", name)
	}
}

func (st *state) doInclude(pos ctok.Pos, line []ctok.Token) error {
	if len(line) == 0 {
		return st.errorf(pos, "#include expects a file name")
	}
	if line[0].Kind == ctok.StringLit {
		return st.processFile(line[0].Text, false, pos)
	}
	if line[0].Kind == ctok.Lt {
		var sb strings.Builder
		for _, t := range line[1:] {
			if t.Kind == ctok.Gt {
				return st.processFile(sb.String(), true, pos)
			}
			switch t.Kind {
			case ctok.Ident, ctok.Keyword:
				sb.WriteString(t.Text)
			case ctok.Dot:
				sb.WriteByte('.')
			case ctok.Slash:
				sb.WriteByte('/')
			case ctok.Minus:
				sb.WriteByte('-')
			default:
				return st.errorf(pos, "bad token in #include <...>")
			}
		}
		return st.errorf(pos, "missing '>' in #include")
	}
	return st.errorf(pos, "bad #include syntax")
}

func (st *state) doDefine(pos ctok.Pos, line []ctok.Token) error {
	if len(line) == 0 || (line[0].Kind != ctok.Ident && line[0].Kind != ctok.Keyword) {
		return st.errorf(pos, "#define expects a name")
	}
	m := &Macro{Name: line[0].Text}
	rest := line[1:]
	// Function-like only if '(' immediately follows the name. The lexer
	// does not record adjacency, so approximate with column positions.
	if len(rest) > 0 && rest[0].Kind == ctok.LParen &&
		rest[0].Pos.Line == line[0].Pos.Line &&
		rest[0].Pos.Col == line[0].Pos.Col+len(line[0].Text) {
		m.IsFunc = true
		i := 1
		for i < len(rest) && rest[i].Kind != ctok.RParen {
			switch rest[i].Kind {
			case ctok.Ident:
				m.Params = append(m.Params, rest[i].Text)
			case ctok.Ellipsis:
				m.Variadic = true
			case ctok.Comma:
			default:
				return st.errorf(pos, "bad macro parameter list")
			}
			i++
		}
		if i >= len(rest) {
			return st.errorf(pos, "unterminated macro parameter list")
		}
		rest = rest[i+1:]
	}
	m.Body = rest
	st.macros[m.Name] = m
	return nil
}

// expandFrom expands the macro (if any) at toks[i], appending the result
// to st.out, and returns the index of the next unconsumed token.
func (st *state) expandFrom(toks []ctok.Token, i int) (int, error) {
	out, next, err := st.expandInto(st.out, toks, i, nil)
	if err != nil {
		return 0, err
	}
	st.out = out
	return next, nil
}

// expandInto appends the fully expanded token sequence for the token at
// toks[i] (plus, for function-like macros, its argument list) to dst,
// returning the extended slice and the next index. hide is the set of
// macro names not to re-expand. Ordinary non-macro tokens — the
// overwhelmingly common case — append straight to dst with no
// intermediate allocation.
func (st *state) expandInto(dst []ctok.Token, toks []ctok.Token, i int, hide map[string]bool) ([]ctok.Token, int, error) {
	t := toks[i]
	if t.Kind != ctok.Ident {
		return append(dst, t), i + 1, nil
	}
	m, ok := st.macros[t.Text]
	if !ok || hide[t.Text] {
		return append(dst, t), i + 1, nil
	}
	if !m.IsFunc {
		if err := st.expand(t.Pos, 1+len(m.Body)+len(hide)); err != nil {
			return nil, 0, err
		}
		body := retag(m.Body, t.Pos)
		out, err := st.rescanInto(dst, body, addHide(hide, m.Name))
		return out, i + 1, err
	}
	// Function-like: need '(' next; otherwise leave the name alone.
	if i+1 >= len(toks) || toks[i+1].Kind != ctok.LParen {
		return append(dst, t), i + 1, nil
	}
	args, next, err := st.collectArgs(toks, i+1)
	if err != nil {
		return nil, 0, err
	}
	if len(args) == 1 && len(args[0]) == 0 && len(m.Params) == 0 {
		args = nil
	}
	if len(args) < len(m.Params) || (len(args) > len(m.Params) && !m.Variadic) {
		return nil, 0, st.errorf(t.Pos, "macro %s expects %d arguments, got %d", m.Name, len(m.Params), len(args))
	}
	// Substitute parameters (arguments are expanded before substitution).
	var body []ctok.Token
	for _, bt := range m.Body {
		if bt.Kind == ctok.Ident {
			if idx := paramIndex(m.Params, bt.Text); idx >= 0 {
				ex, err := st.rescan(args[idx], hide)
				if err != nil {
					return nil, 0, err
				}
				body = append(body, ex...)
				continue
			}
		}
		body = append(body, bt)
	}
	if err := st.expand(t.Pos, 1+len(body)+len(hide)); err != nil {
		return nil, 0, err
	}
	body = retag(body, t.Pos)
	out, err := st.rescanInto(dst, body, addHide(hide, m.Name))
	return out, next, err
}

func paramIndex(params []string, name string) int {
	for i, p := range params {
		if p == name {
			return i
		}
	}
	return -1
}

func addHide(hide map[string]bool, name string) map[string]bool {
	nh := make(map[string]bool, len(hide)+1)
	for k := range hide {
		nh[k] = true
	}
	nh[name] = true
	return nh
}

// retag rewrites token positions to the macro invocation site so that
// downstream diagnostics point at the use, and clears newline flags so a
// multi-line macro body cannot be mistaken for a directive boundary.
func retag(body []ctok.Token, pos ctok.Pos) []ctok.Token {
	out := make([]ctok.Token, len(body))
	for i, t := range body {
		t.Pos = pos
		t.LeadingNewline = false
		out[i] = t
	}
	return out
}

// rescan re-expands macros appearing in a substituted body.
func (st *state) rescan(body []ctok.Token, hide map[string]bool) ([]ctok.Token, error) {
	return st.rescanInto(nil, body, hide)
}

// rescanInto expands body appending to dst, returning the extended slice.
func (st *state) rescanInto(dst, body []ctok.Token, hide map[string]bool) ([]ctok.Token, error) {
	i := 0
	for i < len(body) {
		var err error
		dst, i, err = st.expandInto(dst, body, i, hide)
		if err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// collectArgs parses a macro argument list starting at the '(' in
// toks[open]; it returns the raw (unexpanded) argument token lists and the
// index after the closing ')'.
func (st *state) collectArgs(toks []ctok.Token, open int) ([][]ctok.Token, int, error) {
	depth := 0
	var args [][]ctok.Token
	var cur []ctok.Token
	i := open
	for ; i < len(toks); i++ {
		t := toks[i]
		switch t.Kind {
		case ctok.LParen:
			depth++
			if depth > 1 {
				cur = append(cur, t)
			}
		case ctok.RParen:
			depth--
			if depth == 0 {
				args = append(args, cur)
				return args, i + 1, nil
			}
			cur = append(cur, t)
		case ctok.Comma:
			if depth == 1 {
				args = append(args, cur)
				cur = nil
			} else {
				cur = append(cur, t)
			}
		case ctok.EOF:
			return nil, 0, st.errorf(toks[open].Pos, "unterminated macro argument list")
		default:
			cur = append(cur, t)
		}
	}
	return nil, 0, st.errorf(toks[open].Pos, "unterminated macro argument list")
}
