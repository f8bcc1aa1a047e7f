package workload

import (
	"fmt"
	"strings"
)

// FanOut generates a wide fan-out call-graph shape: breadth independent
// callee cones, each a depth-long chain of single-caller functions over
// its own private globals, all invoked from a two-round main loop.
//
// The cones share no storage, so a pass leaves many sibling PTFs dirty
// at once — the shape where evaluation order varies most, which makes
// it an engine-equivalence input; depth controls how much sequential
// work each cone carries, and an edit to one leaf dirties exactly one
// cone (the IR-hash edit-sensitivity tests).
//
// Each cone root is called under two input alias patterns — once with
// distinct pointer arguments, once with both naming the same pointer
// (the paper's Figure 1 shape) — so every cone carries two PTFs.
//
// Cone i owns globals a<i>, b<i> (ints), p<i>, q<i> (point to them)
// and o<i> (the observed result). Its chain is
//
//	c<i>_0(u, v)  — the leaf: *u = *v, returns *v
//	c<i>_k(u, v)  — calls c<i>_{k-1}, k = 1..depth-1
//	r<i>(u, v)    — the cone root, stores the chain's result into o<i>
//
// breadth and depth must be at least 1 (a depth-1 cone is just
// root→leaf).
func FanOut(breadth, depth int) string {
	if breadth < 1 {
		breadth = 1
	}
	if depth < 1 {
		depth = 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, "/* fan-out shape: breadth=%d depth=%d */\n", breadth, depth)
	for i := 0; i < breadth; i++ {
		fmt.Fprintf(&b, "int a%d; int b%d; int *p%d; int *q%d; int *o%d;\n", i, i, i, i, i)
	}
	for i := 0; i < breadth; i++ {
		fmt.Fprintf(&b, "int *c%d_0(int **u, int **v) { *u = *v; return *v; }\n", i)
		for k := 1; k < depth; k++ {
			fmt.Fprintf(&b, "int *c%d_%d(int **u, int **v) { return c%d_%d(u, v); }\n", i, k, i, k-1)
		}
		fmt.Fprintf(&b, "void r%d(int **u, int **v) { o%d = c%d_%d(u, v); }\n", i, i, i, depth-1)
	}
	b.WriteString("void setup(void)\n{\n")
	for i := 0; i < breadth; i++ {
		fmt.Fprintf(&b, "    p%d = &a%d;\n    q%d = &b%d;\n", i, i, i, i)
	}
	b.WriteString("}\n")
	b.WriteString("int main(void)\n{\n    int k;\n")
	b.WriteString("    for (k = 0; k < 2; k++) {\n")
	for i := 0; i < breadth; i++ {
		fmt.Fprintf(&b, "        r%d(&p%d, &q%d);\n        r%d(&p%d, &p%d);\n", i, i, i, i, i, i)
	}
	// The seed assignments run after the first round of calls: on the
	// first pass every cone reads its pointers before they are seeded,
	// so the seeding dirties all cones at once.
	b.WriteString("        setup();\n    }\n")
	b.WriteString("    return *o0;\n}\n")
	return b.String()
}

// FanOutShape names one canonical fan-out workload.
type FanOutShape struct {
	Name           string
	Breadth, Depth int
}

// FanOutShapes returns the canonical shapes: a maximally wide shallow
// shape, a narrow deep one, and the balanced middle.
func FanOutShapes() []FanOutShape {
	return []FanOutShape{
		{"fanout32x1", 32, 1},
		{"fanout16x2", 16, 2},
		{"fanout8x4", 8, 4},
	}
}

// Source generates the shape's program text.
func (s FanOutShape) Source() string { return FanOut(s.Breadth, s.Depth) }
