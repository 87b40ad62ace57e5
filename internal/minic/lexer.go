// Package minic implements the front end of the MiniC language: a C
// subset sufficient for the paper's workloads (Dhrystone- and
// CoreMark-class integer programs). It provides a lexer, a recursive-
// descent parser producing an AST, and the type definitions shared with
// the IR generator.
//
// Supported: void/char/short/int (signed and unsigned), pointers, fixed
// arrays, structs, enums, function pointers `T (*f)(...)`, all integer
// operators, control flow (if/else, while, do-while, for, switch, break,
// continue, return), globals with initializers, string/char literals,
// sizeof, and the builtins putchar/putint/putuint/puthex/exit/cycles.
package minic

import (
	"fmt"
	"strconv"
	"strings"
)

// TokenKind classifies lexical tokens.
type TokenKind uint8

const (
	TokEOF TokenKind = iota
	TokIdent
	TokNumber
	TokString
	TokChar
	TokPunct   // operators and punctuation
	TokKeyword // reserved words
)

// Token is one lexical token.
type Token struct {
	Kind TokenKind
	Text string
	// Val is the value of a number or char literal.
	Val int32
	// Str is the decoded value of a string literal.
	Str  string
	Line int
	Col  int
}

// Error is a front-end diagnostic with position.
type Error struct {
	Line int
	Col  int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("minic: %d:%d: %s", e.Line, e.Col, e.Msg) }

var keywords = map[string]bool{
	"void": true, "char": true, "short": true, "int": true, "long": true,
	"unsigned": true, "signed": true, "struct": true, "enum": true,
	"if": true, "else": true, "while": true, "do": true, "for": true,
	"return": true, "break": true, "continue": true, "switch": true,
	"case": true, "default": true, "sizeof": true, "const": true,
	"static": true, "register": true, "extern": true,
}

// punct3/punct2 list multi-character operators, longest match first.
var punct3 = []string{"<<=", ">>=", "..."}
var punct2 = []string{
	"==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "->",
	"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--",
}

// punct1 lists the single-character operators and punctuation.
const punct1 = "+-*/%&|^~!<>=?:;,.(){}[]"

// Lex scans the whole source into tokens, ending with TokEOF. Comments
// (// and /* */) and preprocessor-style lines beginning with '#' are
// skipped (the workloads use no macros; #-lines are tolerated so
// headers can be pasted).
func Lex(src string) ([]Token, error) {
	lx := newLexer(src)
	var toks []Token
	for {
		t, err := lx.scan()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}

// lexer scans source one token at a time, so the parser holds only the
// tokens it looks at.
type lexer struct {
	src       string
	i         int
	line, col int
}

func newLexer(src string) lexer { return lexer{src: src, line: 1, col: 1} }

// adv consumes k bytes, tracking the line and column.
func (lx *lexer) adv(k int) {
	for j := 0; j < k; j++ {
		if lx.src[lx.i+j] == '\n' {
			lx.line++
			lx.col = 1
		} else {
			lx.col++
		}
	}
	lx.i += k
}

// scan returns the next token, skipping blanks and comments; at the end
// of the source it returns TokEOF.
func (lx *lexer) scan() (Token, error) {
	src, n := lx.src, len(lx.src)
	for lx.i < n {
		c := src[lx.i]
		startLine, startCol := lx.line, lx.col
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.adv(1)
		case c == '#' || c == '/' && lx.i+1 < n && src[lx.i+1] == '/':
			for lx.i < n && src[lx.i] != '\n' {
				lx.adv(1)
			}
		case c == '/' && lx.i+1 < n && src[lx.i+1] == '*':
			lx.adv(2)
			closed := false
			for lx.i+1 < n {
				if src[lx.i] == '*' && src[lx.i+1] == '/' {
					lx.adv(2)
					closed = true
					break
				}
				lx.adv(1)
			}
			if !closed {
				return Token{}, &Error{startLine, startCol, "unterminated block comment"}
			}
		case isIdentStart(c):
			start := lx.i
			for lx.i < n && isIdentChar(src[lx.i]) {
				lx.adv(1)
			}
			text := src[start:lx.i]
			kind := TokIdent
			if keywords[text] {
				kind = TokKeyword
			}
			return Token{Kind: kind, Text: text, Line: startLine, Col: startCol}, nil
		case c >= '0' && c <= '9':
			start := lx.i
			for lx.i < n && isIdentChar(src[lx.i]) {
				lx.adv(1)
			}
			text := src[start:lx.i]
			v, err := parseNumber(text)
			if err != nil {
				return Token{}, &Error{startLine, startCol, err.Error()}
			}
			return Token{Kind: TokNumber, Text: text, Val: v, Line: startLine, Col: startCol}, nil
		case c == '"':
			s, consumed, err := scanString(src[lx.i:], '"')
			if err != nil {
				return Token{}, &Error{startLine, startCol, err.Error()}
			}
			lx.adv(consumed)
			return Token{Kind: TokString, Text: src[lx.i-consumed : lx.i], Str: s, Line: startLine, Col: startCol}, nil
		case c == '\'':
			s, consumed, err := scanString(src[lx.i:], '\'')
			if err != nil {
				return Token{}, &Error{startLine, startCol, err.Error()}
			}
			if len(s) != 1 {
				return Token{}, &Error{startLine, startCol, "char literal must be one character"}
			}
			lx.adv(consumed)
			return Token{Kind: TokChar, Text: s, Val: int32(s[0]), Line: startLine, Col: startCol}, nil
		default:
			matched := ""
			for _, p := range punct3 {
				if strings.HasPrefix(src[lx.i:], p) {
					matched = p
					break
				}
			}
			if matched == "" {
				for _, p := range punct2 {
					if strings.HasPrefix(src[lx.i:], p) {
						matched = p
						break
					}
				}
			}
			if matched == "" {
				k := strings.IndexByte(punct1, c)
				if k < 0 {
					return Token{}, &Error{startLine, startCol, fmt.Sprintf("unexpected character %q", c)}
				}
				matched = punct1[k : k+1]
			}
			lx.adv(len(matched))
			return Token{Kind: TokPunct, Text: matched, Line: startLine, Col: startCol}, nil
		}
	}
	return Token{Kind: TokEOF, Line: lx.line, Col: lx.col}, nil
}

func isIdentStart(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

func isIdentChar(c byte) bool { return isIdentStart(c) || ('0' <= c && c <= '9') }

func parseNumber(text string) (int32, error) {
	// Strip C suffixes (u, U, l, L).
	t := strings.TrimRight(text, "uUlL")
	v, err := strconv.ParseUint(t, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad number literal %q", text)
	}
	if v > 0xFFFFFFFF {
		return 0, fmt.Errorf("number literal %q exceeds 32 bits", text)
	}
	return int32(uint32(v)), nil
}

// scanString scans a quoted literal starting at s[0]==quote, returning the
// decoded contents and the number of bytes consumed.
func scanString(s string, quote byte) (string, int, error) {
	var b strings.Builder
	i := 1
	for i < len(s) {
		c := s[i]
		if c == quote {
			return b.String(), i + 1, nil
		}
		if c == '\n' {
			break
		}
		if c == '\\' && i+1 < len(s) {
			i++
			switch s[i] {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case 'r':
				b.WriteByte('\r')
			case '0':
				b.WriteByte(0)
			case '\\':
				b.WriteByte('\\')
			case '\'':
				b.WriteByte('\'')
			case '"':
				b.WriteByte('"')
			default:
				return "", 0, fmt.Errorf("unknown escape \\%c", s[i])
			}
			i++
			continue
		}
		b.WriteByte(c)
		i++
	}
	return "", 0, fmt.Errorf("unterminated literal")
}
