package cpp

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"wlpa/internal/ctok"
)

// render joins the token texts for easy comparison.
func render(toks []ctok.Token) string {
	var parts []string
	for _, t := range toks {
		if t.Kind == ctok.EOF {
			break
		}
		switch t.Kind {
		case ctok.Ident, ctok.Keyword, ctok.IntLit, ctok.FloatLit:
			parts = append(parts, t.Text)
		case ctok.StringLit:
			parts = append(parts, `"`+t.Text+`"`)
		case ctok.CharLit:
			parts = append(parts, t.Text)
		default:
			parts = append(parts, t.Kind.String())
		}
	}
	return strings.Join(parts, " ")
}

func pp(t *testing.T, files Source, entry string) string {
	t.Helper()
	toks, err := Preprocess(files, entry, nil)
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	return render(toks)
}

func TestObjectMacro(t *testing.T) {
	got := pp(t, Source{"a.c": "#define N 10\nint x[N];"}, "a.c")
	if got != "int x [ 10 ] ;" {
		t.Errorf("got %q", got)
	}
}

func TestFunctionMacro(t *testing.T) {
	got := pp(t, Source{"a.c": "#define SQ(x) ((x)*(x))\nint y = SQ(a+1);"}, "a.c")
	if got != "int y = ( ( a + 1 ) * ( a + 1 ) ) ;" {
		t.Errorf("got %q", got)
	}
}

func TestFunctionMacroNotCalled(t *testing.T) {
	// A function-like macro name without '(' is left alone.
	got := pp(t, Source{"a.c": "#define F(x) x\nint F;"}, "a.c")
	if got != "int F ;" {
		t.Errorf("got %q", got)
	}
}

func TestNestedMacroExpansion(t *testing.T) {
	src := "#define A B\n#define B 42\nint x = A;"
	got := pp(t, Source{"a.c": src}, "a.c")
	if got != "int x = 42 ;" {
		t.Errorf("got %q", got)
	}
}

func TestRecursiveMacroDoesNotLoop(t *testing.T) {
	src := "#define X X\nint X;"
	got := pp(t, Source{"a.c": src}, "a.c")
	if got != "int X ;" {
		t.Errorf("got %q", got)
	}
}

func TestUndef(t *testing.T) {
	src := "#define N 1\n#undef N\nint x = N;"
	got := pp(t, Source{"a.c": src}, "a.c")
	if got != "int x = N ;" {
		t.Errorf("got %q", got)
	}
}

func TestIfdef(t *testing.T) {
	src := "#define A\n#ifdef A\nint yes;\n#else\nint no;\n#endif"
	got := pp(t, Source{"a.c": src}, "a.c")
	if got != "int yes ;" {
		t.Errorf("got %q", got)
	}
}

func TestIfndef(t *testing.T) {
	src := "#ifndef A\nint yes;\n#endif\n#define A\n#ifndef A\nint no;\n#endif"
	got := pp(t, Source{"a.c": src}, "a.c")
	if got != "int yes ;" {
		t.Errorf("got %q", got)
	}
}

func TestIfExpression(t *testing.T) {
	cases := []struct {
		cond string
		want bool
	}{
		{"1", true}, {"0", false}, {"1+1 == 2", true}, {"3 > 4", false},
		{"defined(FOO)", false}, {"!defined(FOO)", true},
		{"(1 ? 2 : 3) == 2", true}, {"1 && 0", false}, {"1 || 0", true},
		{"0xff & 0x0f", true}, {"2 << 3 == 16", true},
		{"UNKNOWN_IDENT", false},
	}
	for _, c := range cases {
		src := "#if " + c.cond + "\nint yes;\n#endif"
		got := pp(t, Source{"a.c": src}, "a.c")
		if (got == "int yes ;") != c.want {
			t.Errorf("#if %s: got %q, want taken=%v", c.cond, got, c.want)
		}
	}
}

func TestElif(t *testing.T) {
	src := "#define V 2\n#if V == 1\nint a;\n#elif V == 2\nint b;\n#else\nint c;\n#endif"
	got := pp(t, Source{"a.c": src}, "a.c")
	if got != "int b ;" {
		t.Errorf("got %q", got)
	}
}

func TestNestedConditionals(t *testing.T) {
	src := `#define A
#ifdef A
#ifdef B
int ab;
#else
int a_only;
#endif
#endif`
	got := pp(t, Source{"a.c": src}, "a.c")
	if got != "int a_only ;" {
		t.Errorf("got %q", got)
	}
}

func TestInactiveBranchSkipsBadDirectives(t *testing.T) {
	// Macros defined in a dead branch must not take effect.
	src := "#if 0\n#define N 99\n#endif\nint x = N;"
	got := pp(t, Source{"a.c": src}, "a.c")
	if got != "int x = N ;" {
		t.Errorf("got %q", got)
	}
}

func TestUserInclude(t *testing.T) {
	files := Source{
		"main.c": "#include \"defs.h\"\nint x = VALUE;",
		"defs.h": "#define VALUE 7",
	}
	got := pp(t, files, "main.c")
	if got != "int x = 7 ;" {
		t.Errorf("got %q", got)
	}
}

func TestSystemIncludeStdlib(t *testing.T) {
	got := pp(t, Source{"a.c": "#include <stdlib.h>\nint z;"}, "a.c")
	if !strings.Contains(got, "malloc") {
		t.Error("stdlib.h should declare malloc")
	}
	if !strings.Contains(got, "qsort") {
		t.Error("stdlib.h should declare qsort")
	}
	if !strings.HasSuffix(got, "int z ;") {
		t.Errorf("user code missing: %q", got[max(0, len(got)-40):])
	}
}

func TestIncludeGuardIdempotent(t *testing.T) {
	src := "#include <string.h>\n#include <string.h>\nint z;"
	got := pp(t, Source{"a.c": src}, "a.c")
	if strings.Count(got, "strcpy") != 1 {
		t.Errorf("strcpy declared %d times", strings.Count(got, "strcpy"))
	}
}

func TestMissingInclude(t *testing.T) {
	if _, err := Preprocess(Source{"a.c": `#include "nope.h"`}, "a.c", nil); err == nil {
		t.Error("expected error for missing include")
	}
}

// TestIncludeCycle checks that the include depth limit stops a cycle
// through a request file, named in quotes or in angle brackets.
func TestIncludeCycle(t *testing.T) {
	for _, inc := range []string{`#include "a.h"`, "#include <a.h>"} {
		_, err := Preprocess(Source{"a.c": inc + "\n", "a.h": inc + "\n"}, "a.c", nil)
		if err == nil || !strings.Contains(err.Error(), "nesting too deep") {
			t.Errorf("%s: got %v, want the nesting error", inc, err)
		}
	}
}

func TestErrorDirective(t *testing.T) {
	if _, err := Preprocess(Source{"a.c": "#error bad config"}, "a.c", nil); err == nil {
		t.Error("expected #error to fail")
	}
	// #error inside a dead branch is fine.
	if _, err := Preprocess(Source{"a.c": "#if 0\n#error no\n#endif"}, "a.c", nil); err != nil {
		t.Errorf("dead #error should be skipped: %v", err)
	}
}

func TestUnterminatedIf(t *testing.T) {
	if _, err := Preprocess(Source{"a.c": "#if 1\nint x;"}, "a.c", nil); err == nil {
		t.Error("expected error for unterminated #if")
	}
}

func TestPredefinedMacros(t *testing.T) {
	toks, err := Preprocess(Source{"a.c": "int v = LIMIT;"}, "a.c", map[string]string{"LIMIT": "64"})
	if err != nil {
		t.Fatal(err)
	}
	if render(toks) != "int v = 64 ;" {
		t.Errorf("got %q", render(toks))
	}
}

func TestMultiLineMacro(t *testing.T) {
	src := "#define SWAP(a,b) { int t = a; \\\n a = b; b = t; }\nSWAP(x,y)"
	got := pp(t, Source{"a.c": src}, "a.c")
	want := "{ int t = x ; x = y ; y = t ; }"
	if got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestMacroArgWithCommasInParens(t *testing.T) {
	src := "#define ID(x) x\nID(f(a, b))"
	got := pp(t, Source{"a.c": src}, "a.c")
	if got != "f ( a , b )" {
		t.Errorf("got %q", got)
	}
}

func TestVariadicMacroAccepted(t *testing.T) {
	// The assert macro from assert.h must expand.
	src := "#include <assert.h>\nvoid f(void) { assert(x > 0); }"
	got := pp(t, Source{"a.c": src}, "a.c")
	if !strings.Contains(got, "_assert_fail") {
		t.Errorf("assert not expanded: %q", got)
	}
}

func TestPragmaIgnored(t *testing.T) {
	got := pp(t, Source{"a.c": "#pragma once\nint x;"}, "a.c")
	if got != "int x ;" {
		t.Errorf("got %q", got)
	}
}

func TestAllBuiltinHeadersPreprocess(t *testing.T) {
	for name := range BuiltinHeaders {
		src := "#include <" + name + ">\nint main_marker;"
		if _, err := Preprocess(Source{"a.c": src}, "a.c", nil); err != nil {
			t.Errorf("header %s: %v", name, err)
		}
	}
}

// TestBuiltinHeadersShared preprocesses a source that includes every
// built-in header from parallel subtests, expanding the headers' macros
// as it goes: every run must read the same output from the shared
// header tokens (and, under -race, touch them only to read). Afterwards
// the shared tokens still equal a fresh lex of each header, each slice
// and every macro body cut from one is clipped, so no append can write
// into them.
func TestBuiltinHeadersShared(t *testing.T) {
	var names []string
	for name := range BuiltinHeaders {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "#include <%s>\n", name)
	}
	b.WriteString("int f(char *s, ...) { va_list ap; char *p = malloc(4); va_start(ap, s);\n" +
		"assert(p != NULL); va_end(ap); return EXIT_SUCCESS; }\n")
	src := Source{"a.c": b.String()}
	want := pp(t, src, "a.c")
	t.Run("parallel", func(t *testing.T) {
		for i := 0; i < 8; i++ {
			t.Run(fmt.Sprint(i), func(t *testing.T) {
				t.Parallel()
				if got := pp(t, src, "a.c"); got != want {
					t.Errorf("run %d preprocessed differently:\n got %.200s\nwant %.200s", i, got, want)
				}
			})
		}
	})

	hs, err := headerTokens()
	if err != nil {
		t.Fatal(err)
	}
	for name, text := range BuiltinHeaders {
		toks, err := ctok.Tokenize(name, text)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(hs[name], toks) {
			t.Errorf("%s: shared tokens differ from a fresh lex", name)
		}
		if cap(hs[name]) != len(hs[name]) {
			t.Errorf("%s: shared tokens not clipped", name)
		}
	}
	st := &state{files: src, macros: map[string]*Macro{}}
	if err := st.processFile("a.c", false, ctok.Pos{}); err != nil {
		t.Fatal(err)
	}
	for name, m := range st.macros {
		if cap(m.Body) != len(m.Body) {
			t.Errorf("macro %s: body not clipped (len %d, cap %d)", name, len(m.Body), cap(m.Body))
		}
	}
}

// TestBlankSourceReservesLittle guards the output reservation's cap: a
// megabyte of blanks or of comments preprocesses to no tokens, and must
// not reserve memory in proportion to its length.
func TestBlankSourceReservesLittle(t *testing.T) {
	for name, text := range map[string]string{
		"spaces":   strings.Repeat(" ", 1<<20),
		"comments": strings.Repeat("/* c */\n", 1<<17),
	} {
		var toks []ctok.Token
		var err error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		toks, err = Preprocess(Source{"big.c": text}, "big.c", nil)
		runtime.ReadMemStats(&after)
		if err != nil || len(toks) != 1 {
			t.Fatalf("%s: %d tokens, %v", name, len(toks), err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s: Preprocess allocated %d bytes for 1 MB of source, want under 1 MB", name, got)
		}
	}
}

// doublings is a translation unit of n #defines, each naming the one
// before twice (#define A1 A0 A0 ... #define An An-1 An-1), and one use
// of the last: unbounded, it would expand to 2^n tokens.
func doublings(n int) string {
	var b strings.Builder
	for k := 1; k <= n; k++ {
		fmt.Fprintf(&b, "#define A%d A%d A%d\n", k, k-1, k-1)
	}
	fmt.Fprintf(&b, "int x = A%d;\n", n)
	return b.String()
}

// TestMacroExpansionBounded pins the expansion budget: chains of 18 and
// 24 doublings (a few hundred bytes asking for 2^18 and 2^24 tokens)
// fail with ErrExpansion in well under 100 ms and 1 MB of allocation,
// while a chain that stays within 64 tokens of expansion per token of
// input still expands.
func TestMacroExpansionBounded(t *testing.T) {
	for _, n := range []int{18, 24} {
		src := doublings(n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		_, err := Preprocess(Source{"bomb.c": src}, "bomb.c", nil)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrExpansion) {
			t.Fatalf("%d doublings (%d bytes): err %v, want ErrExpansion", n, len(src), err)
		}
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("%d doublings (%d bytes): %v in %v, %d KB allocated", n, len(src), err, elapsed, alloc>>10)
		if elapsed > 100*time.Millisecond {
			t.Errorf("%d doublings: failed after %v, want under 100ms", n, elapsed)
		}
		if alloc > 1<<20 {
			t.Errorf("%d doublings: allocated %d KB, want under 1 MB", n, alloc>>10)
		}
	}
	// Six doublings expand to 64 tokens from about 35 tokens of input.
	if got := pp(t, Source{"ok.c": doublings(6)}, "ok.c"); strings.Count(got, "A0") != 64 {
		t.Errorf("6 doublings expanded to %q, want 64 A0 tokens", got)
	}
}
