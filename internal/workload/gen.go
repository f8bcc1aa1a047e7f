package workload

import (
	"fmt"
	"math/rand"
	"strings"
)

// Feature is a bitmask of optional generator constructs. Each bit turns
// on one family of statements or declarations; fuzz inputs toggle bits
// directly (see FuzzGenConfig), so every feature must keep the generated
// program well-defined and trap-free on its own and in any combination.
type Feature uint32

const (
	// FeatHeap allocates with malloc into the pointer pool.
	FeatHeap Feature = 1 << iota
	// FeatStructs declares struct pair globals with pointer fields.
	FeatStructs
	// FeatFuncPtrs emits the dispatch() function-pointer trampoline.
	FeatFuncPtrs
	// FeatRecursion makes the last generated function self-recursive
	// (bounded by the rdepth global).
	FeatRecursion
	// FeatMultiPtr declares int** and int*** globals and statements
	// that read and write through them.
	FeatMultiPtr
	// FeatPtrReturn emits helper functions returning pointers (both
	// fresh targets and a selection between pointer arguments).
	FeatPtrReturn
	// FeatOutParam emits helpers that return pointers through an
	// int** out-parameter.
	FeatOutParam
	// FeatFuncPtrField stores function pointers in a struct field and
	// calls through the field.
	FeatFuncPtrField
	// FeatNestedStruct declares a struct containing a struct pair and
	// accesses the doubly-nested pointer fields.
	FeatNestedStruct
	// FeatFree malloc's, uses, and free's a dead (never escaping)
	// heap object in a self-contained block.
	FeatFree
	// FeatAddrLocal takes the address of a block-local int and passes
	// it down a call chain that reads and writes through it.
	FeatAddrLocal
	// FeatLeak malloc's, uses, and abandons a heap object (drops the
	// only pointer). Leaking is well-defined C — the interpreter records
	// the lost object (Result.LeakSites) and the static leak checker
	// must report it (the difftest leak rung cross-checks the two).
	FeatLeak
	// FeatTypestate emits balanced FILE chains (fopen, null guard, a
	// stream use — sometimes through a helper — then fclose). Every
	// chain respects the FILE protocol, so the typestate checkers must
	// stay quiet and the difftest typestate rung holds the static
	// reports to the interpreter's stream census.
	FeatTypestate
	// FeatTaint reads an environment variable and, under a null guard,
	// hands it to system(). The taint checker reports the flow
	// (taintflow is a security finding on a well-defined program, so
	// the check-clean stage exempts it); the interpreter models getenv
	// as NULL, so the sink never executes.
	FeatTaint

	numFeatures = 14
)

var featureNames = [numFeatures]string{
	"heap", "structs", "funcptrs", "recursion", "multiptr", "ptrreturn",
	"outparam", "funcptrfield", "nestedstruct", "free", "addrlocal",
	"leak", "typestate", "taint",
}

// AllFeatures returns the mask with every feature enabled.
func AllFeatures() Feature { return Feature(1<<numFeatures) - 1 }

// NumFeatures returns the number of distinct feature bits.
func NumFeatures() int { return numFeatures }

// FeatureName returns the name of the i-th feature bit.
func FeatureName(i int) string { return featureNames[i] }

func (f Feature) String() string {
	if f == 0 {
		return "none"
	}
	var parts []string
	for i := 0; i < numFeatures; i++ {
		if f&(1<<i) != 0 {
			parts = append(parts, featureNames[i])
		}
	}
	return strings.Join(parts, "+")
}

// GenConfig controls random program generation.
type GenConfig struct {
	Seed         int64
	NumGlobals   int // scalar int globals (targets)
	NumPtrs      int // pointer globals
	NumFuncs     int
	StmtsPerFunc int

	// Features selects the optional constructs.
	Features Feature
}

// DefaultGenConfig returns a medium-sized configuration with the
// original four features enabled.
func DefaultGenConfig(seed int64) GenConfig {
	return GenConfig{
		Seed: seed, NumGlobals: 4, NumPtrs: 4, NumFuncs: 4,
		StmtsPerFunc: 8,
		Features:     FeatHeap | FeatStructs | FeatFuncPtrs | FeatRecursion,
	}
}

// FuzzGenConfig decodes a fuzz input into a generator configuration:
// the seed drives the statement dice, the low feature bits of raw
// select constructs. Sizes are fixed so fuzz iterations stay fast.
func FuzzGenConfig(seed int64, raw uint32) GenConfig {
	return GenConfig{
		Seed: seed, NumGlobals: 4, NumPtrs: 4, NumFuncs: 3,
		StmtsPerFunc: 6,
		Features:     Feature(raw) & AllFeatures(),
	}
}

// generator state: which pointer-valued expressions are known valid
// (point at a real object) so dereferences never trap.
type generator struct {
	r   *rand.Rand
	cfg GenConfig
	sb  strings.Builder

	ptrs    []string // pointer global names (int *)
	ints    []string // int global names
	arrays  []string // int array globals
	structs []string // struct pair globals (fields f0, f1: int *)
	pptrs   []string // int ** globals (point at a pointer global)
	ppptrs  []string // int *** globals (point at an int ** global)
	funcs   []string // generated function names (callable)

	pickers  []string // pointer-returning helper names: int *pickN(int k)
	makers   []string // out-parameter helper names: void mkN(int **out, int k)
	haveSel  bool     // int *sel(int *a, int *b, int k) emitted
	haveVt   bool     // struct vtab global vt0 emitted
	haveFuse bool     // void fuse0(FILE *f) stream-use helper emitted

	gensym int // unique suffix for block-local names

	indent int
}

// Generate produces a self-contained, well-defined C program exercising
// pointer assignments, aliasing, branches, loops, calls, heap
// allocation, struct fields, multi-level pointers, pointer-returning
// and out-parameter helpers, function-pointer fields, nested structs,
// dead-heap free, address-taken locals, and bounded recursion,
// according to the configured features.
func Generate(cfg GenConfig) string {
	g := &generator{r: rand.New(rand.NewSource(cfg.Seed)), cfg: cfg}
	g.emitHeader()
	g.emitGlobals()
	g.emitHelpers()
	g.emitFuncs()
	g.emitMain()
	return g.sb.String()
}

func (g *generator) has(f Feature) bool { return g.cfg.Features&f != 0 }

func (g *generator) w(format string, args ...any) {
	g.sb.WriteString(strings.Repeat("    ", g.indent))
	fmt.Fprintf(&g.sb, format, args...)
	g.sb.WriteByte('\n')
}

func (g *generator) emitHeader() {
	g.w("/* generated: seed=%d features=%s */", g.cfg.Seed, g.cfg.Features)
	if g.has(FeatTypestate) {
		g.w("#include <stdio.h>")
	}
	if g.has(FeatHeap | FeatFree | FeatLeak | FeatTaint) {
		g.w("#include <stdlib.h>")
	}
	g.w("")
}

func (g *generator) emitGlobals() {
	for i := 0; i < g.cfg.NumGlobals; i++ {
		name := fmt.Sprintf("g%d", i)
		g.ints = append(g.ints, name)
		g.w("int %s;", name)
	}
	for i := 0; i < g.cfg.NumPtrs; i++ {
		name := fmt.Sprintf("p%d", i)
		g.ptrs = append(g.ptrs, name)
		g.w("int *%s;", name)
	}
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("arr%d", i)
		g.arrays = append(g.arrays, name)
		g.w("int %s[8];", name)
	}
	if g.has(FeatMultiPtr) {
		for i := 0; i < 2; i++ {
			name := fmt.Sprintf("q%d", i)
			g.pptrs = append(g.pptrs, name)
			g.w("int **%s;", name)
		}
		name := "r0"
		g.ppptrs = append(g.ppptrs, name)
		g.w("int ***%s;", name)
	}
	if g.has(FeatStructs | FeatNestedStruct) {
		g.w("struct pair { int *f0; int *f1; };")
	}
	if g.has(FeatStructs) {
		for i := 0; i < 2; i++ {
			name := fmt.Sprintf("s%d", i)
			g.structs = append(g.structs, name)
			g.w("struct pair %s;", name)
		}
	}
	if g.has(FeatNestedStruct) {
		g.w("struct outer { struct pair in; int *q; };")
		g.w("struct outer n0;")
	}
	if g.has(FeatFuncPtrField) && g.cfg.NumFuncs > 0 {
		g.w("struct vtab { void (*h)(int **, int *); int *d; };")
		g.w("struct vtab vt0;")
		g.haveVt = true
	}
	g.w("int tick;")
	g.w("int rdepth;")
	g.w("")
}

// target returns a random addressable int location expression ("&g0",
// "arr1", "&arr0[2]").
func (g *generator) target() string {
	switch g.r.Intn(3) {
	case 0:
		return "&" + g.ints[g.r.Intn(len(g.ints))]
	case 1:
		return g.arrays[g.r.Intn(len(g.arrays))]
	default:
		return fmt.Sprintf("&%s[%d]", g.arrays[g.r.Intn(len(g.arrays))], g.r.Intn(8))
	}
}

// ptr returns a random pointer global name.
func (g *generator) ptr() string { return g.ptrs[g.r.Intn(len(g.ptrs))] }

// pptr returns a random int** global name.
func (g *generator) pptr() string { return g.pptrs[g.r.Intn(len(g.pptrs))] }

// cond returns a terminating, varying condition.
func (g *generator) cond() string {
	return fmt.Sprintf("(tick + %d) %% %d", g.r.Intn(5), 2+g.r.Intn(3))
}

// sym returns a fresh name with the given prefix for block-local
// declarations.
func (g *generator) sym(prefix string) string {
	g.gensym++
	return fmt.Sprintf("%s%d", prefix, g.gensym)
}

// stmt emits one random statement. Valid-pointer invariants: every
// int* global points at a live int object; every int** global points
// at an int* global; every int*** global points at an int** global;
// struct pointer fields and vt0 are initialized in main's prologue
// before any generated statement runs.
func (g *generator) stmt(depth int) {
	const numKinds = 25
	switch g.r.Intn(numKinds) {
	case 0: // p = &target
		g.w("%s = %s;", g.ptr(), g.target())
	case 1: // p = q
		g.w("%s = %s;", g.ptr(), g.ptr())
	case 2: // *p = int
		g.w("*%s = tick + %d;", g.ptr(), g.r.Intn(100))
	case 3: // read through pointer
		g.w("tick += *%s;", g.ptr())
	case 4: // pointer arithmetic within an array
		g.w("%s = %s + %d;", g.ptr(), g.arrays[g.r.Intn(len(g.arrays))], g.r.Intn(7))
	case 5: // struct fields
		if len(g.structs) > 0 {
			s := g.structs[g.r.Intn(len(g.structs))]
			if g.r.Intn(2) == 0 {
				g.w("%s.f%d = %s;", s, g.r.Intn(2), g.ptr())
			} else {
				g.w("%s = %s.f%d;", g.ptr(), s, g.r.Intn(2))
			}
			return
		}
		g.w("%s = %s;", g.ptr(), g.ptr())
	case 6: // heap
		if g.has(FeatHeap) {
			g.w("%s = (int *)malloc(sizeof(int) * 4);", g.ptr())
			return
		}
		g.w("%s = %s;", g.ptr(), g.target())
	case 7: // if/else with pointer effects
		if depth < 2 {
			g.w("if (%s) {", g.cond())
			g.indent++
			g.stmt(depth + 1)
			g.indent--
			g.w("} else {")
			g.indent++
			g.stmt(depth + 1)
			g.indent--
			g.w("}")
			return
		}
		g.w("tick++;")
	case 8: // bounded loop
		if depth < 2 {
			v := g.sym("i")
			g.w("{ int %s; for (%s = 0; %s < %d; %s++) {", v, v, v, 2+g.r.Intn(3), v)
			g.indent++
			g.stmt(depth + 1)
			g.indent--
			g.w("} }")
			return
		}
		g.w("tick++;")
	case 9: // call an already-generated function
		if len(g.funcs) > 0 {
			callee := g.funcs[g.r.Intn(len(g.funcs))]
			g.w("%s(&%s, %s);", callee, g.ptr(), g.ptr())
			return
		}
		g.w("tick++;")
	case 10: // swap two pointers via a local
		g.w("{ int *%[1]s = %[2]s; %[3]s = %[4]s; %[5]s = %[1]s; }",
			g.sym("t"), g.ptr(), g.ptr(), g.ptr(), g.ptr())
	case 11: // write through a pointer-to-pointer local
		g.w("{ int **%[1]s = &%[2]s; *%[1]s = %[3]s; }", g.sym("pp"), g.ptr(), g.target())
	case 12: // conditional expression
		g.w("%s = %s ? %s : %s;", g.ptr(), g.cond(), g.ptr(), g.ptr())
	case 13: // multi-level: retarget / read / write through int** and int***
		if g.has(FeatMultiPtr) {
			switch g.r.Intn(6) {
			case 0:
				g.w("%s = &%s;", g.pptr(), g.ptr())
			case 1:
				g.w("*%s = %s;", g.pptr(), g.target())
			case 2:
				g.w("%s = *%s;", g.ptr(), g.pptr())
			case 3:
				g.w("**%s = tick + %d;", g.pptr(), g.r.Intn(50))
			case 4:
				g.w("tick += **%s;", g.pptr())
			default:
				r := g.ppptrs[g.r.Intn(len(g.ppptrs))]
				switch g.r.Intn(4) {
				case 0:
					g.w("%s = &%s;", r, g.pptr())
				case 1:
					g.w("*%s = &%s;", r, g.ptr())
				case 2:
					g.w("%s = **%s;", g.ptr(), r)
				default:
					g.w("***%s = tick + %d;", r, g.r.Intn(50))
				}
			}
			return
		}
		g.w("tick += %d;", g.r.Intn(10))
	case 14: // pointer-returning helper
		if len(g.pickers) > 0 {
			pick := g.pickers[g.r.Intn(len(g.pickers))]
			g.w("%s = %s(tick + %d);", g.ptr(), pick, g.r.Intn(9))
			return
		}
		g.w("tick++;")
	case 15: // select between two pointers via a helper
		if g.haveSel {
			g.w("%s = sel(%s, %s, tick + %d);", g.ptr(), g.ptr(), g.ptr(), g.r.Intn(9))
			return
		}
		g.w("tick++;")
	case 16: // out-parameter helper
		if len(g.makers) > 0 {
			mk := g.makers[g.r.Intn(len(g.makers))]
			g.w("%s(&%s, tick + %d);", mk, g.ptr(), g.r.Intn(9))
			return
		}
		g.w("tick++;")
	case 17: // function pointer stored in a struct field
		if g.haveVt && len(g.funcs) > 0 {
			if g.r.Intn(3) == 0 {
				g.w("vt0.h = %s;", g.funcs[g.r.Intn(len(g.funcs))])
			} else {
				// The target may itself call through vt0.h, so the
				// call is rdepth-bounded like direct recursion.
				g.w("if (rdepth > 0) { rdepth--; vt0.h(&%s, %s); }", g.ptr(), g.ptr())
			}
			return
		}
		g.w("tick++;")
	case 18: // nested struct pointer fields
		if g.has(FeatNestedStruct) {
			switch g.r.Intn(5) {
			case 0:
				g.w("n0.in.f%d = %s;", g.r.Intn(2), g.ptr())
			case 1:
				g.w("%s = n0.in.f%d;", g.ptr(), g.r.Intn(2))
			case 2:
				g.w("n0.q = %s;", g.target())
			case 3:
				g.w("tick += *n0.q;")
			default:
				g.w("*n0.in.f%d = tick + %d;", g.r.Intn(2), g.r.Intn(50))
			}
			return
		}
		g.w("tick += %d;", g.r.Intn(10))
	case 19: // malloc, use, free a dead heap object
		if g.has(FeatFree) {
			h := g.sym("h")
			g.w("{ int *%[1]s = (int *)malloc(sizeof(int) * 2); *%[1]s = tick + %[2]d; tick += *%[1]s; free(%[1]s); }",
				h, g.r.Intn(20))
			return
		}
		g.w("tick++;")
	case 20: // address-taken local passed down the call chain
		if g.has(FeatAddrLocal) {
			v := g.sym("loc")
			g.w("{ int %[1]s = tick + %[2]d; chain1(&%[1]s); tick += %[1]s; }", v, g.r.Intn(20))
			return
		}
		g.w("tick++;")
	case 21: // malloc, use, abandon a heap object (leak)
		if g.has(FeatLeak) {
			h := g.sym("lk")
			g.w("{ int *%[1]s = (int *)malloc(sizeof(int) * 2); *%[1]s = tick + %[2]d; tick += *%[1]s; }",
				h, g.r.Intn(20))
			return
		}
		g.w("tick++;")
	case 22: // balanced FILE chain: open, guarded use, close
		if g.has(FeatTypestate) {
			fh := g.sym("fs")
			use := fmt.Sprintf("fputc(tick & 127, %s);", fh)
			if g.haveFuse && g.r.Intn(2) == 0 {
				// Route the stream use through the helper so the
				// typestate engine crosses a call boundary.
				use = fmt.Sprintf("fuse0(%s);", fh)
			}
			g.w("{ FILE *%[1]s = fopen(\"wl.tmp\", \"w\"); if (%[1]s) { %[2]s fclose(%[1]s); } }", fh, use)
			return
		}
		g.w("tick++;")
	case 23: // guarded environment read flowing to a command sink
		if g.has(FeatTaint) {
			ev := g.sym("ev")
			g.w("{ char *%[1]s = getenv(\"WL_CMD\"); if (%[1]s) { system(%[1]s); } }", ev)
			return
		}
		g.w("tick++;")
	default:
		g.w("tick += %d;", g.r.Intn(10))
	}
}

// emitFeatureFloor emits one canonical statement per enabled feature
// at the top of main, so every requested feature manifests in the
// program no matter which cases the random statement soup happens to
// pick. Fuzz coverage claims ("this input exercises feature X") and
// the per-feature generator tests rely on this floor.
func (g *generator) emitFeatureFloor() {
	if g.has(FeatHeap) {
		g.w("%s = (int *)malloc(sizeof(int) * 4);", g.ptr())
	}
	if g.has(FeatStructs) && len(g.structs) > 0 {
		g.w("%s = %s.f0;", g.ptr(), g.structs[0])
	}
	if g.has(FeatMultiPtr) && len(g.pptrs) > 0 {
		g.w("%s = *%s;", g.ptr(), g.pptr())
	}
	if len(g.pickers) > 0 {
		g.w("%s = %s(tick);", g.ptr(), g.pickers[0])
	}
	if g.haveSel {
		g.w("%s = sel(%s, %s, tick);", g.ptr(), g.ptr(), g.ptr())
	}
	if len(g.makers) > 0 {
		g.w("%s(&%s, tick);", g.makers[0], g.ptr())
	}
	if g.haveVt && len(g.funcs) > 0 {
		g.w("if (rdepth > 0) { rdepth--; vt0.h(&%s, %s); }", g.ptr(), g.ptr())
	}
	if g.has(FeatNestedStruct) {
		g.w("%s = n0.in.f0;", g.ptr())
	}
	if g.has(FeatFree) {
		h := g.sym("h")
		g.w("{ int *%[1]s = (int *)malloc(sizeof(int) * 2); *%[1]s = tick; tick += *%[1]s; free(%[1]s); }", h)
	}
	if g.has(FeatAddrLocal) {
		v := g.sym("loc")
		g.w("{ int %[1]s = tick; chain1(&%[1]s); tick += %[1]s; }", v)
	}
	if g.has(FeatLeak) {
		h := g.sym("lk")
		g.w("{ int *%[1]s = (int *)malloc(sizeof(int) * 2); *%[1]s = tick; tick += *%[1]s; }", h)
	}
	if g.has(FeatTypestate) {
		fh := g.sym("fs")
		g.w("{ FILE *%[1]s = fopen(\"wl.tmp\", \"w\"); if (%[1]s) { fuse0(%[1]s); fclose(%[1]s); } }", fh)
	}
	if g.has(FeatTaint) {
		ev := g.sym("ev")
		g.w("{ char *%[1]s = getenv(\"WL_CMD\"); if (%[1]s) { system(%[1]s); } }", ev)
	}
}

// emitHelpers declares the feature helper functions referenced by the
// statement soup. They come before the generated f-functions so every
// call site sees its callee already declared.
func (g *generator) emitHelpers() {
	if g.has(FeatTypestate) {
		// A stream user one call away from the open/close pair, so the
		// FILE handle's state has to survive a summary application.
		g.w("void fuse0(FILE *f) {")
		g.indent++
		g.w("fputc(tick & 127, f);")
		g.indent--
		g.w("}")
		g.w("")
		g.haveFuse = true
	}
	if g.has(FeatAddrLocal) {
		// Read-and-write users of an address-taken local. The pointer
		// never escapes the chain, so the local stays valid for every
		// access.
		g.w("void useloc(int *v) {")
		g.indent++
		g.w("tick += *v;")
		g.w("*v = tick & 15;")
		g.indent--
		g.w("}")
		g.w("")
		g.w("void chain0(int *v) {")
		g.indent++
		g.w("useloc(v);")
		g.w("tick += *v;")
		g.indent--
		g.w("}")
		g.w("")
		g.w("void chain1(int *v) {")
		g.indent++
		g.w("chain0(v);")
		g.indent--
		g.w("}")
		g.w("")
	}
	if g.has(FeatPtrReturn) {
		for i := 0; i < 2; i++ {
			name := fmt.Sprintf("pick%d", i)
			g.w("int *%s(int k) {", name)
			g.indent++
			g.w("if (k %% 2) {")
			g.indent++
			g.w("return %s;", g.target())
			g.indent--
			g.w("}")
			g.w("return %s;", g.target())
			g.indent--
			g.w("}")
			g.w("")
			g.pickers = append(g.pickers, name)
		}
		g.w("int *sel(int *a, int *b, int k) {")
		g.indent++
		g.w("if (k %% 3) {")
		g.indent++
		g.w("return a;")
		g.indent--
		g.w("}")
		g.w("return b;")
		g.indent--
		g.w("}")
		g.w("")
		g.haveSel = true
	}
	if g.has(FeatOutParam) {
		for i := 0; i < 2; i++ {
			name := fmt.Sprintf("mk%d", i)
			g.w("void %s(int **out, int k) {", name)
			g.indent++
			g.w("if (k %% 2) {")
			g.indent++
			g.w("*out = %s;", g.target())
			g.indent--
			g.w("} else {")
			g.indent++
			g.w("*out = %s;", g.target())
			g.indent--
			g.w("}")
			g.indent--
			g.w("}")
			g.w("")
			g.makers = append(g.makers, name)
		}
	}
}

func (g *generator) emitFuncs() {
	n := g.cfg.NumFuncs
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("f%d", i)
		recursive := g.has(FeatRecursion) && i == n-1 && n > 1
		if recursive {
			g.w("void %s(int **a, int *b) {", name)
			g.indent++
			g.w("*a = b;")
			for s := 0; s < g.cfg.StmtsPerFunc/2; s++ {
				g.stmt(0)
			}
			// Structurally bounded recursion: rdepth only decreases.
			g.w("if (rdepth > 0) { rdepth--; %s(a, *a); }", name)
			g.indent--
			g.w("}")
		} else {
			g.w("void %s(int **a, int *b) {", name)
			g.indent++
			g.w("*a = b;")
			for s := 0; s < g.cfg.StmtsPerFunc; s++ {
				g.stmt(0)
			}
			g.indent--
			g.w("}")
		}
		g.funcs = append(g.funcs, name)
		g.w("")
	}
	if g.has(FeatFuncPtrs) && len(g.funcs) >= 2 {
		g.w("void dispatch(int k, int **a, int *b) {")
		g.indent++
		g.w("void (*fp)(int **, int *);")
		g.w("if (k %% 2) fp = %s; else fp = %s;", g.funcs[0], g.funcs[1])
		g.w("fp(a, b);")
		g.indent--
		g.w("}")
		g.w("")
	}
}

func (g *generator) emitMain() {
	g.w("int main(void) {")
	g.indent++
	// Make every pointer valid before any dereference.
	for i, p := range g.ptrs {
		g.w("%s = &%s;", p, g.ints[i%len(g.ints)])
	}
	for i, q := range g.pptrs {
		g.w("%s = &%s;", q, g.ptrs[i%len(g.ptrs)])
	}
	for i, r := range g.ppptrs {
		g.w("%s = &%s;", r, g.pptrs[i%len(g.pptrs)])
	}
	if g.has(FeatStructs) {
		for _, s := range g.structs {
			g.w("%s.f0 = %s;", s, g.ptrs[0])
			g.w("%s.f1 = &%s;", s, g.ints[0])
		}
	}
	if g.has(FeatNestedStruct) {
		g.w("n0.in.f0 = &%s;", g.ints[0])
		g.w("n0.in.f1 = %s;", g.arrays[0])
		g.w("n0.q = &%s;", g.ints[len(g.ints)-1])
	}
	if g.haveVt && len(g.funcs) > 0 {
		g.w("vt0.h = %s;", g.funcs[0])
		g.w("vt0.d = &%s;", g.ints[0])
	}
	g.w("tick = 1;")
	g.w("rdepth = 6;")
	g.emitFeatureFloor()
	for s := 0; s < g.cfg.StmtsPerFunc; s++ {
		g.stmt(0)
	}
	for range g.funcs {
		g.w("%s(&%s, %s);", g.funcs[g.r.Intn(len(g.funcs))], g.ptr(), g.ptr())
	}
	if g.has(FeatFuncPtrs) && len(g.funcs) >= 2 {
		g.w("dispatch(tick, &%s, %s);", g.ptr(), g.ptr())
		g.w("dispatch(tick + 1, &%s, %s);", g.ptr(), g.ptr())
	}
	g.w("return tick & 0x7f;")
	g.indent--
	g.w("}")
}
