package sqlengine

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokKind classifies lexer tokens.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokSymbol // punctuation and operators
)

type token struct {
	kind tokKind
	text string // keywords upper-cased; identifiers as written
	pos  int    // byte offset in the input, for error messages
}

// keywords recognised by the parser. Identifiers matching these
// (case-insensitively) lex as tokKeyword.
var keywords = map[string]bool{
	"SELECT": true, "DISTINCT": true, "FROM": true, "WHERE": true,
	"AND": true, "OR": true, "NOT": true, "AS": true,
	"JOIN": true, "INNER": true, "ON": true,
	"GROUP": true, "BY": true, "ORDER": true, "ASC": true, "DESC": true,
	"LIMIT": true, "TABLE": true,
	"CREATE": true, "INSERT": true, "INTO": true, "VALUES": true,
	"DROP": true, "IS": true, "NULL": true, "IN": true,
	"TRUE": true, "FALSE": true, "BETWEEN": true,
	"CASE": true, "WHEN": true, "THEN": true, "ELSE": true, "END": true,
	"SHOW": true, "TABLES": true, "DESCRIBE": true, "HAVING": true,
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

// lex tokenizes the input completely, returning a parse-ready token stream.
func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			l.toks = append(l.toks, token{kind: tokEOF, pos: l.pos})
			return l.toks, nil
		}
		// Every case below consumes at least one byte or fails.
		c := l.src[l.pos]
		r, _, err := l.peekRune()
		if err != nil {
			return nil, err
		}
		switch {
		case isIdentStart(r):
			if err := l.lexIdent(); err != nil {
				return nil, err
			}
		case c >= '0' && c <= '9', c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]):
			if err := l.lexNumber(); err != nil {
				return nil, err
			}
		case c == '\'':
			if err := l.lexString(); err != nil {
				return nil, err
			}
		default:
			if err := l.lexSymbol(r); err != nil {
				return nil, err
			}
		}
	}
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || r == '$' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

func isDigit(b byte) bool { return b >= '0' && b <= '9' }

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		// -- line comments
		if c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		return
	}
}

// peekRune decodes the UTF-8 rune at the cursor, rejecting invalid or
// truncated encodings with their byte offset.
func (l *lexer) peekRune() (rune, int, error) {
	r, size := utf8.DecodeRuneInString(l.src[l.pos:])
	if r == utf8.RuneError && size <= 1 {
		return 0, 0, fmt.Errorf("sql: invalid UTF-8 at byte %d", l.pos)
	}
	return r, size, nil
}

func (l *lexer) lexIdent() error {
	start := l.pos
	for l.pos < len(l.src) {
		r, size, err := l.peekRune()
		if err != nil {
			return err
		}
		if !isIdentPart(r) {
			break
		}
		l.pos += size
	}
	text := l.src[start:l.pos]
	upper := keywordKey(text)
	if keywords[upper] {
		l.toks = append(l.toks, token{kind: tokKeyword, text: upper, pos: start})
	} else {
		l.toks = append(l.toks, token{kind: tokIdent, text: text, pos: start})
	}
	return nil
}

// keywordKey upper-cases an identifier for the keyword lookup. A
// non-ASCII one is lower-cased first — the spelling ColRef.String prints —
// so a printed identifier never re-lexes as a keyword ("İS" lower-cases
// to "is").
func keywordKey(text string) string {
	for i := 0; i < len(text); i++ {
		if text[i] >= utf8.RuneSelf {
			return strings.ToUpper(strings.ToLower(text))
		}
	}
	return strings.ToUpper(text)
}

func (l *lexer) lexNumber() error {
	start := l.pos
	seenDot := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if isDigit(c) {
			l.pos++
			continue
		}
		if c == '.' && !seenDot {
			seenDot = true
			l.pos++
			continue
		}
		break
	}
	text := l.src[start:l.pos]
	if text == "." {
		return fmt.Errorf("sql: bad number at byte %d", start)
	}
	l.toks = append(l.toks, token{kind: tokNumber, text: text, pos: start})
	return nil
}

func (l *lexer) lexString() error {
	start := l.pos
	l.pos++ // opening quote
	var b strings.Builder
	for {
		if l.pos >= len(l.src) {
			return fmt.Errorf("sql: unterminated string starting at byte %d", start)
		}
		c := l.src[l.pos]
		if c == '\'' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				b.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			break
		}
		b.WriteByte(c)
		l.pos++
	}
	l.toks = append(l.toks, token{kind: tokString, text: b.String(), pos: start})
	return nil
}

// lexSymbol lexes the operator or punctuation starting with rune r.
func (l *lexer) lexSymbol(r rune) error {
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "<=", ">=", "<>", "!=":
		l.toks = append(l.toks, token{kind: tokSymbol, text: two, pos: l.pos})
		l.pos += 2
		return nil
	}
	c := l.src[l.pos]
	switch c {
	case '(', ')', ',', '*', '+', '-', '/', '=', '<', '>', ';', '.':
		l.toks = append(l.toks, token{kind: tokSymbol, text: string(c), pos: l.pos})
		l.pos++
		return nil
	}
	return fmt.Errorf("sql: unexpected character %q at byte %d", r, l.pos)
}
