package ctype

import (
	"fmt"
	"strings"
)

// Kind classifies a type.
type Kind int

const (
	Void  Kind = iota
	Int        // all integer types incl. char and enums
	Float      // float and double
	Pointer
	Array
	Struct // also unions (IsUnion set)
	Func
)

// Field is a struct or union member.
type Field struct {
	Name   string
	Type   *Type
	Offset int64 // byte offset from the start of the struct; 0 in unions
}

// Type is a C type. Struct types are unique per definition: two struct
// values are the same type iff they share the same *Type. Scalar, pointer
// and array types compare structurally via Equal.
type Type struct {
	Kind Kind

	// Int/Float
	Size   int64 // in bytes (also set for Pointer/Struct/Array)
	Signed bool  // Int only

	// Pointer/Array
	Elem *Type
	Len  int64 // Array: number of elements, -1 if unspecified

	// Struct
	Tag        string // struct/union tag, "" if anonymous
	Fields     []Field
	IsUnion    bool
	Incomplete bool // declared but not defined

	// Func
	Ret      *Type
	Params   []*Type
	Variadic bool
}

// Predefined scalar types. These are shared; never mutate them.
var (
	VoidType   = &Type{Kind: Void}
	CharType   = &Type{Kind: Int, Size: 1, Signed: true}
	UCharType  = &Type{Kind: Int, Size: 1}
	ShortType  = &Type{Kind: Int, Size: 2, Signed: true}
	UShortType = &Type{Kind: Int, Size: 2}
	IntType    = &Type{Kind: Int, Size: 4, Signed: true}
	UIntType   = &Type{Kind: Int, Size: 4}
	LongType   = &Type{Kind: Int, Size: 8, Signed: true}
	ULongType  = &Type{Kind: Int, Size: 8}
	FloatType  = &Type{Kind: Float, Size: 4}
	DoubleType = &Type{Kind: Float, Size: 8}
)

// PointerSize is the size of every pointer type.
const PointerSize = 8

// PointerTo returns the type "pointer to elem".
func PointerTo(elem *Type) *Type {
	return &Type{Kind: Pointer, Size: PointerSize, Elem: elem}
}

// ArrayOf returns the type "array of n elem". n may be -1 for an
// incomplete array type.
func ArrayOf(elem *Type, n int64) *Type {
	t := &Type{Kind: Array, Elem: elem, Len: n}
	if n >= 0 {
		t.Size = elem.Sizeof() * n
	}
	return t
}

// FuncOf returns a function type.
func FuncOf(ret *Type, params []*Type, variadic bool) *Type {
	return &Type{Kind: Func, Ret: ret, Params: params, Variadic: variadic}
}

// NewStruct creates an empty (incomplete) struct or union type with the
// given tag. Call Complete to supply the fields.
func NewStruct(tag string, isUnion bool) *Type {
	return &Type{Kind: Struct, Tag: tag, IsUnion: isUnion, Incomplete: true}
}

// align rounds n up to a multiple of a (a power of two).
func align(n, a int64) int64 {
	if a <= 1 {
		return n
	}
	return (n + a - 1) &^ (a - 1)
}

// Alignof returns the alignment requirement of t.
func (t *Type) Alignof() int64 {
	switch t.Kind {
	case Void, Func:
		return 1
	case Int, Float, Pointer:
		if t.Size == 0 {
			return 1
		}
		if t.Size > 8 {
			return 8
		}
		return t.Size
	case Array:
		return t.Elem.Alignof()
	case Struct:
		var a int64 = 1
		for _, f := range t.Fields {
			if fa := f.Type.Alignof(); fa > a {
				a = fa
			}
		}
		return a
	}
	return 1
}

// Complete lays out the fields of a struct or union created with
// NewStruct, computing offsets and the total size.
func (t *Type) Complete(fields []Field) {
	if t.Kind != Struct {
		panic("ctype: Complete on non-struct")
	}
	t.Fields = fields
	t.Incomplete = false
	if t.IsUnion {
		var size int64
		for i := range t.Fields {
			t.Fields[i].Offset = 0
			if s := t.Fields[i].Type.Sizeof(); s > size {
				size = s
			}
		}
		t.Size = align(size, t.Alignof())
		return
	}
	var off int64
	for i := range t.Fields {
		f := &t.Fields[i]
		off = align(off, f.Type.Alignof())
		f.Offset = off
		off += f.Type.Sizeof()
	}
	t.Size = align(off, t.Alignof())
	if t.Size == 0 {
		t.Size = 1
	}
}

// Sizeof returns the size of t in bytes. Incomplete and function types
// report 0; void reports 1 so that void* arithmetic behaves like char*
// (a common compiler extension the benchmarks rely on).
func (t *Type) Sizeof() int64 {
	switch t.Kind {
	case Void:
		return 1
	case Func:
		return 0
	case Array:
		if t.Len < 0 {
			return 0
		}
		return t.Elem.Sizeof() * t.Len
	default:
		return t.Size
	}
}

// FieldByName returns the field with the given name, or nil.
func (t *Type) FieldByName(name string) *Field {
	for i := range t.Fields {
		if t.Fields[i].Name == name {
			return &t.Fields[i]
		}
	}
	return nil
}

// IsArith reports whether t is an arithmetic (integer or floating) type.
func (t *Type) IsArith() bool { return t.Kind == Int || t.Kind == Float }

// IsPointerLike reports whether values of type t can hold a pointer: a
// pointer, or an integer at least as wide as a pointer (C programs store
// pointers in longs). The analysis treats such locations as potential
// pointer homes, per the paper's low-level memory model.
func (t *Type) IsPointerLike() bool {
	return t.Kind == Pointer || (t.Kind == Int && t.Size >= PointerSize)
}

// Decay returns the type after array-to-pointer and function-to-pointer
// decay, as happens to rvalues.
func (t *Type) Decay() *Type {
	switch t.Kind {
	case Array:
		return PointerTo(t.Elem)
	case Func:
		return PointerTo(t)
	}
	return t
}

// Equal reports whether a and b are the same type. Struct types are
// nominal (identity); everything else is structural.
func Equal(a, b *Type) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil || a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case Void:
		return true
	case Int:
		return a.Size == b.Size && a.Signed == b.Signed
	case Float:
		return a.Size == b.Size
	case Pointer:
		return Equal(a.Elem, b.Elem)
	case Array:
		return a.Len == b.Len && Equal(a.Elem, b.Elem)
	case Struct:
		return false // identity compared above
	case Func:
		if !Equal(a.Ret, b.Ret) || len(a.Params) != len(b.Params) || a.Variadic != b.Variadic {
			return false
		}
		for i := range a.Params {
			if !Equal(a.Params[i], b.Params[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// CommonArith returns the usual-arithmetic-conversions result type.
func CommonArith(a, b *Type) *Type {
	if a.Kind == Float || b.Kind == Float {
		if (a.Kind == Float && a.Size == 8) || (b.Kind == Float && b.Size == 8) {
			return DoubleType
		}
		return FloatType
	}
	// Integer promotion to at least int.
	pick := func(t *Type) *Type {
		if t.Size < 4 {
			return IntType
		}
		return t
	}
	a, b = pick(a), pick(b)
	if a.Size > b.Size {
		return a
	}
	if b.Size > a.Size {
		return b
	}
	if !a.Signed || !b.Signed {
		if a.Size == 8 {
			return ULongType
		}
		return UIntType
	}
	return a
}

func (t *Type) String() string {
	if t == nil {
		return "<nil>"
	}
	switch t.Kind {
	case Void:
		return "void"
	case Int:
		prefix := ""
		if !t.Signed {
			prefix = "unsigned "
		}
		switch t.Size {
		case 1:
			if t.Signed {
				return "char"
			}
			return "unsigned char"
		case 2:
			return prefix + "short"
		case 4:
			return prefix + "int"
		case 8:
			return prefix + "long"
		}
		return fmt.Sprintf("%sint%d", prefix, t.Size*8)
	case Float:
		if t.Size == 4 {
			return "float"
		}
		return "double"
	case Pointer:
		return t.Elem.String() + "*"
	case Array:
		if t.Len < 0 {
			return t.Elem.String() + "[]"
		}
		return fmt.Sprintf("%s[%d]", t.Elem, t.Len)
	case Struct:
		kw := "struct"
		if t.IsUnion {
			kw = "union"
		}
		if t.Tag != "" {
			return kw + " " + t.Tag
		}
		return kw + " <anon>"
	case Func:
		var ps []string
		for _, p := range t.Params {
			ps = append(ps, p.String())
		}
		if t.Variadic {
			ps = append(ps, "...")
		}
		return fmt.Sprintf("%s(%s)", t.Ret, strings.Join(ps, ", "))
	}
	return "<?>"
}
