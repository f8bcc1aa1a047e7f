package ctok

import (
	"fmt"
	"strconv"
	"strings"
)

// Lexer scans C source text into tokens.
type Lexer struct {
	src      string
	file     string
	pos      int
	line     int
	col      int
	sawNL    bool // newline seen since last token
	preserve bool // keep Hash tokens (preprocessor mode)
}

// New returns a lexer over src. The file name is used in positions.
func New(file, src string) *Lexer {
	return &Lexer{src: src, file: file, line: 1, col: 1, preserve: true}
}

// Error is a lexical error with a position.
type Error struct {
	Pos Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

func (l *Lexer) errorf(p Pos, format string, args ...any) error {
	return &Error{Pos: p, Msg: fmt.Sprintf(format, args...)}
}

func (l *Lexer) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *Lexer) peekAt(n int) byte {
	if l.pos+n >= len(l.src) {
		return 0
	}
	return l.src[l.pos+n]
}

func (l *Lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) here() Pos { return Pos{File: l.file, Line: l.line, Col: l.col} }

// skipSpace consumes whitespace and comments, recording newlines.
func (l *Lexer) skipSpace() error {
	for l.pos < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f':
			l.advance()
		case c == '\\' && l.peekAt(1) == '\n':
			// Line continuation: consume without recording the newline.
			l.advance()
			l.advance()
		case c == '\n':
			l.sawNL = true
			l.advance()
		case c == '/' && l.peekAt(1) == '/':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peekAt(1) == '*':
			start := l.here()
			l.advance()
			l.advance()
			closed := false
			for l.pos < len(l.src) {
				if l.peek() == '*' && l.peekAt(1) == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				if l.peek() == '\n' {
					l.sawNL = true
				}
				l.advance()
			}
			if !closed {
				return l.errorf(start, "unterminated block comment")
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool { return isIdentStart(c) || isDigit(c) }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

// Next returns the next token. At end of input it returns an EOF token.
func (l *Lexer) Next() (Token, error) {
	if err := l.skipSpace(); err != nil {
		return Token{}, err
	}
	tok := Token{Pos: l.here(), LeadingNewline: l.sawNL || l.pos == 0}
	l.sawNL = false
	if l.pos >= len(l.src) {
		tok.Kind = EOF
		tok.LeadingNewline = true
		return tok, nil
	}
	c := l.peek()
	switch {
	case isIdentStart(c):
		start := l.pos
		for l.pos < len(l.src) && isIdentCont(l.peek()) {
			l.advance()
		}
		tok.Text = l.src[start:l.pos]
		if IsKeyword(tok.Text) {
			tok.Kind = Keyword
		} else {
			tok.Kind = Ident
		}
		return tok, nil
	case isDigit(c) || (c == '.' && isDigit(l.peekAt(1))):
		return l.scanNumber(tok)
	case c == '\'':
		return l.scanChar(tok)
	case c == '"':
		return l.scanString(tok)
	}
	return l.scanOperator(tok)
}

func (l *Lexer) scanNumber(tok Token) (Token, error) {
	start := l.pos
	isFloat := false
	if l.peek() == '0' && (l.peekAt(1) == 'x' || l.peekAt(1) == 'X') {
		l.advance()
		l.advance()
		for l.pos < len(l.src) && isHexDigit(l.peek()) {
			l.advance()
		}
	} else {
		for l.pos < len(l.src) && isDigit(l.peek()) {
			l.advance()
		}
		if l.peek() == '.' {
			isFloat = true
			l.advance()
			for l.pos < len(l.src) && isDigit(l.peek()) {
				l.advance()
			}
		}
		if l.peek() == 'e' || l.peek() == 'E' {
			next := l.peekAt(1)
			if isDigit(next) || ((next == '+' || next == '-') && isDigit(l.peekAt(2))) {
				isFloat = true
				l.advance()
				if l.peek() == '+' || l.peek() == '-' {
					l.advance()
				}
				for l.pos < len(l.src) && isDigit(l.peek()) {
					l.advance()
				}
			}
		}
	}
	text := l.src[start:l.pos]
	// Consume integer/float suffixes (u, l, f combinations).
	for l.pos < len(l.src) {
		switch l.peek() {
		case 'u', 'U', 'l', 'L':
			l.advance()
		case 'f', 'F':
			if !strings.HasPrefix(text, "0x") && !strings.HasPrefix(text, "0X") {
				isFloat = true
				l.advance()
				continue
			}
			l.advance()
		default:
			goto done
		}
	}
done:
	tok.Text = text
	if isFloat {
		tok.Kind = FloatLit
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return tok, l.errorf(tok.Pos, "bad float literal %q", text)
		}
		tok.FloatVal = v
		return tok, nil
	}
	tok.Kind = IntLit
	var v uint64
	var err error
	switch {
	case strings.HasPrefix(text, "0x") || strings.HasPrefix(text, "0X"):
		v, err = strconv.ParseUint(text[2:], 16, 64)
	case len(text) > 1 && text[0] == '0':
		v, err = strconv.ParseUint(text[1:], 8, 64)
	default:
		v, err = strconv.ParseUint(text, 10, 64)
	}
	if err != nil {
		return tok, l.errorf(tok.Pos, "bad integer literal %q", text)
	}
	tok.IntVal = int64(v)
	return tok, nil
}

func (l *Lexer) scanEscape(p Pos) (byte, error) {
	l.advance() // backslash
	if l.pos >= len(l.src) {
		return 0, l.errorf(p, "unterminated escape sequence")
	}
	c := l.advance()
	switch c {
	case 'n':
		return '\n', nil
	case 't':
		return '\t', nil
	case 'r':
		return '\r', nil
	case '0':
		// Possibly a longer octal escape.
		v := 0
		for l.pos < len(l.src) && l.peek() >= '0' && l.peek() <= '7' {
			v = v*8 + int(l.advance()-'0')
		}
		return byte(v), nil
	case 'b':
		return '\b', nil
	case 'f':
		return '\f', nil
	case 'v':
		return '\v', nil
	case 'a':
		return 7, nil
	case 'x':
		v := 0
		for l.pos < len(l.src) && isHexDigit(l.peek()) {
			d, _ := strconv.ParseUint(string(l.advance()), 16, 8)
			v = v*16 + int(d)
		}
		return byte(v), nil
	case '\\', '\'', '"', '?':
		return c, nil
	default:
		if c >= '1' && c <= '7' {
			v := int(c - '0')
			for l.pos < len(l.src) && l.peek() >= '0' && l.peek() <= '7' {
				v = v*8 + int(l.advance()-'0')
			}
			return byte(v), nil
		}
		return 0, l.errorf(p, "unknown escape sequence \\%c", c)
	}
}

func (l *Lexer) scanChar(tok Token) (Token, error) {
	l.advance() // opening quote
	if l.pos >= len(l.src) {
		return tok, l.errorf(tok.Pos, "unterminated character literal")
	}
	var val byte
	if l.peek() == '\\' {
		v, err := l.scanEscape(tok.Pos)
		if err != nil {
			return tok, err
		}
		val = v
	} else {
		val = l.advance()
	}
	if l.pos >= len(l.src) || l.peek() != '\'' {
		return tok, l.errorf(tok.Pos, "unterminated character literal")
	}
	l.advance()
	tok.Kind = CharLit
	tok.IntVal = int64(val)
	tok.Text = fmt.Sprintf("'%c'", val)
	return tok, nil
}

func (l *Lexer) scanString(tok Token) (Token, error) {
	l.advance() // opening quote
	var sb strings.Builder
	for {
		if l.pos >= len(l.src) || l.peek() == '\n' {
			return tok, l.errorf(tok.Pos, "unterminated string literal")
		}
		if l.peek() == '"' {
			l.advance()
			break
		}
		if l.peek() == '\\' {
			v, err := l.scanEscape(tok.Pos)
			if err != nil {
				return tok, err
			}
			sb.WriteByte(v)
			continue
		}
		sb.WriteByte(l.advance())
	}
	tok.Kind = StringLit
	tok.Text = sb.String()
	return tok, nil
}

func (l *Lexer) scanOperator(tok Token) (Token, error) {
	c := l.advance()
	two := func(next byte, k2, k1 Kind) Kind {
		if l.peek() == next {
			l.advance()
			return k2
		}
		return k1
	}
	switch c {
	case '(':
		tok.Kind = LParen
	case ')':
		tok.Kind = RParen
	case '{':
		tok.Kind = LBrace
	case '}':
		tok.Kind = RBrace
	case '[':
		tok.Kind = LBracket
	case ']':
		tok.Kind = RBracket
	case ';':
		tok.Kind = Semi
	case ',':
		tok.Kind = Comma
	case '?':
		tok.Kind = Question
	case ':':
		tok.Kind = Colon
	case '~':
		tok.Kind = Tilde
	case '#':
		tok.Kind = Hash
	case '.':
		if l.peek() == '.' && l.peekAt(1) == '.' {
			l.advance()
			l.advance()
			tok.Kind = Ellipsis
		} else {
			tok.Kind = Dot
		}
	case '+':
		switch l.peek() {
		case '+':
			l.advance()
			tok.Kind = Inc
		case '=':
			l.advance()
			tok.Kind = AddAssign
		default:
			tok.Kind = Plus
		}
	case '-':
		switch l.peek() {
		case '-':
			l.advance()
			tok.Kind = Dec
		case '=':
			l.advance()
			tok.Kind = SubAssign
		case '>':
			l.advance()
			tok.Kind = Arrow
		default:
			tok.Kind = Minus
		}
	case '*':
		tok.Kind = two('=', MulAssign, Star)
	case '/':
		tok.Kind = two('=', DivAssign, Slash)
	case '%':
		tok.Kind = two('=', ModAssign, Percent)
	case '^':
		tok.Kind = two('=', XorAssign, Caret)
	case '!':
		tok.Kind = two('=', Ne, Not)
	case '=':
		tok.Kind = two('=', Eq, Assign)
	case '&':
		switch l.peek() {
		case '&':
			l.advance()
			tok.Kind = AndAnd
		case '=':
			l.advance()
			tok.Kind = AndAssign
		default:
			tok.Kind = Amp
		}
	case '|':
		switch l.peek() {
		case '|':
			l.advance()
			tok.Kind = OrOr
		case '=':
			l.advance()
			tok.Kind = OrAssign
		default:
			tok.Kind = Pipe
		}
	case '<':
		switch l.peek() {
		case '<':
			l.advance()
			tok.Kind = two('=', ShlAssign, Shl)
		case '=':
			l.advance()
			tok.Kind = Le
		default:
			tok.Kind = Lt
		}
	case '>':
		switch l.peek() {
		case '>':
			l.advance()
			tok.Kind = two('=', ShrAssign, Shr)
		case '=':
			l.advance()
			tok.Kind = Ge
		default:
			tok.Kind = Gt
		}
	default:
		return tok, l.errorf(tok.Pos, "unexpected character %q", c)
	}
	return tok, nil
}

// MaxReserve caps the tokens a slice reserves ahead of lexing (640 KB):
// blanks and comments yield no tokens, so a reservation in proportion
// to the source length needs a ceiling.
const MaxReserve = 1 << 13

// Tokenize scans all of src and returns the token stream including the
// trailing EOF token. It reserves one token per four bytes of source,
// about the density of the benchmark suite, up to MaxReserve.
func Tokenize(file, src string) ([]Token, error) {
	l := New(file, src)
	toks := make([]Token, 0, min(len(src)/4+1, MaxReserve))
	for {
		t, err := l.Next()
		if err != nil {
			return toks, err
		}
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks, nil
		}
	}
}
