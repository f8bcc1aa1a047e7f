package ctok

import (
	"runtime"
	"strings"
	"testing"
)

func kinds(t *testing.T, src string) []Kind {
	t.Helper()
	toks, err := Tokenize("test.c", src)
	if err != nil {
		t.Fatalf("Tokenize(%q): %v", src, err)
	}
	var ks []Kind
	for _, tok := range toks {
		ks = append(ks, tok.Kind)
	}
	return ks
}

func TestIdentifiersAndKeywords(t *testing.T) {
	toks, err := Tokenize("t.c", "int foo _bar x123 while")
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		kind Kind
		text string
	}{
		{Keyword, "int"}, {Ident, "foo"}, {Ident, "_bar"},
		{Ident, "x123"}, {Keyword, "while"}, {EOF, ""},
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d", len(toks), len(want))
	}
	for i, w := range want {
		if toks[i].Kind != w.kind || toks[i].Text != w.text {
			t.Errorf("token %d = (%v, %q), want (%v, %q)", i, toks[i].Kind, toks[i].Text, w.kind, w.text)
		}
	}
}

func TestIntegerLiterals(t *testing.T) {
	cases := []struct {
		src  string
		want int64
	}{
		{"0", 0}, {"42", 42}, {"0x1f", 31}, {"0X10", 16}, {"017", 15},
		{"42u", 42}, {"42UL", 42}, {"1234567890", 1234567890},
	}
	for _, c := range cases {
		toks, err := Tokenize("t.c", c.src)
		if err != nil {
			t.Fatalf("%q: %v", c.src, err)
		}
		if toks[0].Kind != IntLit || toks[0].IntVal != c.want {
			t.Errorf("%q = (%v, %d), want (IntLit, %d)", c.src, toks[0].Kind, toks[0].IntVal, c.want)
		}
	}
}

func TestFloatLiterals(t *testing.T) {
	cases := []struct {
		src  string
		want float64
	}{
		{"1.5", 1.5}, {"0.25", 0.25}, {".5", 0.5}, {"1e3", 1000},
		{"2.5e-1", 0.25}, {"1.0f", 1.0}, {"3.", 3.0},
	}
	for _, c := range cases {
		toks, err := Tokenize("t.c", c.src)
		if err != nil {
			t.Fatalf("%q: %v", c.src, err)
		}
		if toks[0].Kind != FloatLit || toks[0].FloatVal != c.want {
			t.Errorf("%q = (%v, %g), want (FloatLit, %g)", c.src, toks[0].Kind, toks[0].FloatVal, c.want)
		}
	}
}

func TestCharLiterals(t *testing.T) {
	cases := []struct {
		src  string
		want int64
	}{
		{"'a'", 'a'}, {`'\n'`, '\n'}, {`'\0'`, 0}, {`'\t'`, '\t'},
		{`'\\'`, '\\'}, {`'\''`, '\''}, {`'\x41'`, 'A'},
	}
	for _, c := range cases {
		toks, err := Tokenize("t.c", c.src)
		if err != nil {
			t.Fatalf("%q: %v", c.src, err)
		}
		if toks[0].Kind != CharLit || toks[0].IntVal != c.want {
			t.Errorf("%q = (%v, %d), want (CharLit, %d)", c.src, toks[0].Kind, toks[0].IntVal, c.want)
		}
	}
}

func TestStringLiterals(t *testing.T) {
	toks, err := Tokenize("t.c", `"hello\nworld" ""`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != StringLit || toks[0].Text != "hello\nworld" {
		t.Errorf("got (%v, %q)", toks[0].Kind, toks[0].Text)
	}
	if toks[1].Kind != StringLit || toks[1].Text != "" {
		t.Errorf("empty string: got (%v, %q)", toks[1].Kind, toks[1].Text)
	}
}

func TestOperators(t *testing.T) {
	src := "( ) { } [ ] ; , . -> ... + - * / % ++ -- & | ^ ~ << >> ! && || < > <= >= == != = += -= *= /= %= &= |= ^= <<= >>= ? : #"
	want := []Kind{
		LParen, RParen, LBrace, RBrace, LBracket, RBracket, Semi, Comma, Dot,
		Arrow, Ellipsis, Plus, Minus, Star, Slash, Percent, Inc, Dec, Amp,
		Pipe, Caret, Tilde, Shl, Shr, Not, AndAnd, OrOr, Lt, Gt, Le, Ge, Eq,
		Ne, Assign, AddAssign, SubAssign, MulAssign, DivAssign, ModAssign,
		AndAssign, OrAssign, XorAssign, ShlAssign, ShrAssign, Question,
		Colon, Hash, EOF,
	}
	got := kinds(t, src)
	if len(got) != len(want) {
		t.Fatalf("got %d kinds, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestComments(t *testing.T) {
	src := "a /* comment */ b // line\nc"
	got := kinds(t, src)
	want := []Kind{Ident, Ident, Ident, EOF}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
}

func TestUnterminatedComment(t *testing.T) {
	if _, err := Tokenize("t.c", "a /* never closed"); err == nil {
		t.Error("expected error for unterminated comment")
	}
}

func TestUnterminatedString(t *testing.T) {
	if _, err := Tokenize("t.c", `"abc`); err == nil {
		t.Error("expected error for unterminated string")
	}
	if _, err := Tokenize("t.c", "\"abc\ndef\""); err == nil {
		t.Error("expected error for newline in string")
	}
}

func TestPositions(t *testing.T) {
	toks, err := Tokenize("f.c", "a\n  bb\nccc")
	if err != nil {
		t.Fatal(err)
	}
	wantPos := []Pos{
		{File: "f.c", Line: 1, Col: 1},
		{File: "f.c", Line: 2, Col: 3},
		{File: "f.c", Line: 3, Col: 1},
	}
	for i, w := range wantPos {
		if toks[i].Pos != w {
			t.Errorf("token %d pos = %v, want %v", i, toks[i].Pos, w)
		}
	}
}

func TestLeadingNewline(t *testing.T) {
	toks, err := Tokenize("t.c", "a b\nc d")
	if err != nil {
		t.Fatal(err)
	}
	wantNL := []bool{true, false, true, false}
	for i, w := range wantNL {
		if toks[i].LeadingNewline != w {
			t.Errorf("token %d (%v) LeadingNewline = %v, want %v", i, toks[i], toks[i].LeadingNewline, w)
		}
	}
}

func TestLineContinuation(t *testing.T) {
	toks, err := Tokenize("t.c", "#define X \\\n 1\ny")
	if err != nil {
		t.Fatal(err)
	}
	// The "1" after the continuation must NOT have a leading newline;
	// the "y" must.
	var one, y *Token
	for i := range toks {
		if toks[i].Text == "1" {
			one = &toks[i]
		}
		if toks[i].Text == "y" {
			y = &toks[i]
		}
	}
	if one == nil || y == nil {
		t.Fatalf("missing tokens in %v", toks)
	}
	if one.LeadingNewline {
		t.Error("token after line continuation should not have LeadingNewline")
	}
	if !y.LeadingNewline {
		t.Error("token after real newline should have LeadingNewline")
	}
}

func TestRealisticSnippet(t *testing.T) {
	src := `
struct node { struct node *next; int val; };
int main(void) {
    struct node *p = (struct node *)malloc(sizeof(struct node));
    p->next = 0;
    return p->val;
}`
	toks, err := Tokenize("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) < 30 {
		t.Errorf("suspiciously few tokens: %d", len(toks))
	}
	var text strings.Builder
	for _, tok := range toks {
		if tok.Kind == Ident || tok.Kind == Keyword {
			text.WriteString(tok.Text)
			text.WriteByte(' ')
		}
	}
	for _, want := range []string{"struct", "node", "malloc", "sizeof", "return"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("missing %q in identifier stream", want)
		}
	}
}

func TestUnexpectedCharacter(t *testing.T) {
	if _, err := Tokenize("t.c", "a @ b"); err == nil {
		t.Error("expected error for '@'")
	}
}

func TestKindString(t *testing.T) {
	if Arrow.String() != "->" {
		t.Errorf("Arrow.String() = %q", Arrow.String())
	}
	if Kind(9999).String() == "" {
		t.Error("unknown kind should still format")
	}
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestBlankSourceReservesLittle guards the token reservation's cap: a
// megabyte of blanks or of comments lexes to one token, so reserving
// one token per four bytes without a ceiling (21 MB here) would let a
// small request allocate far more than its tokens need.
func TestBlankSourceReservesLittle(t *testing.T) {
	for name, src := range map[string]string{
		"spaces":   strings.Repeat(" ", 1<<20),
		"comments": strings.Repeat("/* c */\n", 1<<17),
	} {
		var toks []Token
		var err error
		got := allocated(func() { toks, err = Tokenize("big.c", src) })
		if err != nil || len(toks) != 1 {
			t.Fatalf("%s: %d tokens, %v", name, len(toks), err)
		}
		if got >= 1<<20 {
			t.Errorf("%s: Tokenize allocated %d bytes for 1 MB of source, want under 1 MB", name, got)
		}
	}
}
