package cfg

import (
	"fmt"
	"slices"
	"strings"

	"wlpa/internal/cast"
)

// TermKind classifies IR expression terms.
type TermKind int

const (
	// TermVar denotes the storage location of a variable (its address).
	TermVar TermKind = iota
	// TermFunc denotes a function value (the address of a function).
	TermFunc
	// TermStr denotes the storage of a string literal.
	TermStr
	// TermDeref denotes the contents of the locations computed by Base:
	// the points-to lookup of each base location, then displaced by Off
	// and widened by Stride.
	TermDeref
	// TermNull denotes the null pointer constant assigned to a
	// pointer-typed destination. The analysis maps it to the null
	// pseudo-location when null tracking is enabled and ignores it
	// otherwise (a null pointer reaches no storage).
	TermNull
)

// Term is one alternative of an IR expression. After the base locations
// are computed (directly for TermVar/TermFunc/TermStr, via a points-to
// lookup for TermDeref), each location is shifted by Off and widened to
// stride gcd with Stride (0 means no widening).
type Term struct {
	Kind   TermKind
	Sym    *cast.Symbol // TermVar, TermFunc
	StrID  int          // TermStr
	StrVal string       // TermStr
	Base   *Expr        // TermDeref
	Off    int64
	Stride int64
}

// Expr is an IR expression in points-to form: a union of terms.
type Expr struct {
	Terms []Term
}

// IsEmpty reports whether the expression can produce no pointer values.
func (e *Expr) IsEmpty() bool { return e == nil || len(e.Terms) == 0 }

// expr1 builds a single-term expression.
func expr1(t Term) *Expr {
	return &Expr{Terms: []Term{t}}
}

func varExpr(sym *cast.Symbol) *Expr {
	return expr1(Term{Kind: TermVar, Sym: sym})
}

func funcExpr(sym *cast.Symbol) *Expr {
	return expr1(Term{Kind: TermFunc, Sym: sym})
}

func strExpr(id int, val string) *Expr {
	return expr1(Term{Kind: TermStr, StrID: id, StrVal: val})
}

func nullExpr() *Expr {
	return expr1(Term{Kind: TermNull})
}

// derefExpr wraps base in a dereference.
func derefExpr(base *Expr) *Expr {
	if base.IsEmpty() {
		return &Expr{}
	}
	return expr1(Term{Kind: TermDeref, Base: base})
}

// shift displaces every term's result by delta bytes.
func shift(e *Expr, delta int64) *Expr {
	if e.IsEmpty() || delta == 0 {
		return e
	}
	out := &Expr{Terms: slices.Clone(e.Terms)}
	for i := range out.Terms {
		out.Terms[i].Off += delta
	}
	return out
}

// widen folds stride s into every term (gcd with any existing stride).
func widen(e *Expr, s int64) *Expr {
	if e.IsEmpty() || s == 0 {
		return e
	}
	out := &Expr{Terms: slices.Clone(e.Terms)}
	for i := range out.Terms {
		t := &out.Terms[i]
		if t.Stride == 0 {
			t.Stride = s
		} else {
			t.Stride = gcd64(t.Stride, s)
		}
	}
	return out
}

// union merges expressions.
func union(es ...*Expr) *Expr {
	out := &Expr{}
	for _, e := range es {
		if e != nil {
			out.Terms = append(out.Terms, e.Terms...)
		}
	}
	return out
}

func gcd64(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (t Term) String() string {
	var core string
	switch t.Kind {
	case TermVar:
		core = "&" + t.Sym.Name
	case TermFunc:
		core = "fn:" + t.Sym.Name
	case TermStr:
		core = fmt.Sprintf("str%d", t.StrID)
	case TermDeref:
		core = "*" + t.Base.String()
	case TermNull:
		core = "null"
	}
	if t.Off != 0 {
		core = fmt.Sprintf("(%s+%d)", core, t.Off)
	}
	if t.Stride != 0 {
		core = fmt.Sprintf("(%s%%%d)", core, t.Stride)
	}
	return core
}

func (e *Expr) String() string {
	if e.IsEmpty() {
		return "⊥"
	}
	parts := make([]string, len(e.Terms))
	for i, t := range e.Terms {
		parts[i] = t.String()
	}
	if len(parts) == 1 {
		return parts[0]
	}
	return "(" + strings.Join(parts, " | ") + ")"
}
