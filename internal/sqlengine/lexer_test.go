package sqlengine

import (
	"strings"
	"testing"
)

func lexKinds(t *testing.T, src string) []token {
	t.Helper()
	toks, err := lex(src)
	if err != nil {
		t.Fatalf("lex(%q): %v", src, err)
	}
	return toks
}

func TestLexBasics(t *testing.T) {
	toks := lexKinds(t, "SELECT a1, 'it''s', 3.14 FROM t")
	want := []struct {
		kind tokKind
		text string
	}{
		{tokKeyword, "SELECT"},
		{tokIdent, "a1"},
		{tokSymbol, ","},
		{tokString, "it's"},
		{tokSymbol, ","},
		{tokNumber, "3.14"},
		{tokKeyword, "FROM"},
		{tokIdent, "t"},
		{tokEOF, ""},
	}
	if len(toks) != len(want) {
		t.Fatalf("token count = %d, want %d: %v", len(toks), len(want), toks)
	}
	for i, w := range want {
		if toks[i].kind != w.kind || toks[i].text != w.text {
			t.Errorf("token %d = (%d, %q), want (%d, %q)", i, toks[i].kind, toks[i].text, w.kind, w.text)
		}
	}
}

func TestLexKeywordsCaseInsensitive(t *testing.T) {
	// "İS" lower-cases to "is", the spelling a column named İS would print
	// as, so it is the keyword too.
	toks := lexKinds(t, "select Select SELECT sElEcT İS")
	if toks[4].kind != tokKeyword || toks[4].text != "IS" {
		t.Errorf("İS = %+v, want keyword IS", toks[4])
	}
	for i := 0; i < 4; i++ {
		if toks[i].kind != tokKeyword || toks[i].text != "SELECT" {
			t.Errorf("token %d = %+v", i, toks[i])
		}
	}
}

func TestLexTwoCharOperators(t *testing.T) {
	toks := lexKinds(t, "<= >= <> != < >")
	want := []string{"<=", ">=", "<>", "!=", "<", ">"}
	for i, w := range want {
		if toks[i].kind != tokSymbol || toks[i].text != w {
			t.Errorf("token %d = %+v, want %q", i, toks[i], w)
		}
	}
}

func TestLexComments(t *testing.T) {
	toks := lexKinds(t, "SELECT -- whole line ignored\n a")
	if len(toks) != 3 || toks[1].text != "a" {
		t.Errorf("comment handling: %v", toks)
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{
		"'unterminated",
		"a @ b",
		"a # b",
	} {
		if _, err := lex(src); err == nil {
			t.Errorf("lex(%q) should fail", src)
		}
	}
}

// TestLexUTF8 pins identifiers to UTF-8: multi-byte letters lex as one
// identifier, and an invalid or truncated encoding fails at its offset
// instead of being read byte by byte as Latin-1.
func TestLexUTF8(t *testing.T) {
	for _, c := range []struct {
		src   string
		ident string // the identifier after SELECT, when the source lexes
		err   string // the error, when it does not
	}{
		{src: "SELECT café FROM t", ident: "café"},
		{src: "SELECT naïve FROM t", ident: "naïve"},
		{src: "SELECT x FROM \xce", err: "invalid UTF-8 at byte 14"},
		{src: "SELECT x FROM t\xc3", err: "invalid UTF-8 at byte 15"},
	} {
		toks, err := lex(c.src)
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("lex(%q) err = %v, want %q", c.src, err, c.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("lex(%q): %v", c.src, err)
			continue
		}
		if len(toks) != 5 || toks[1].kind != tokIdent || toks[1].text != c.ident {
			t.Errorf("lex(%q) = %+v, want identifier %q", c.src, toks, c.ident)
		}
	}
}

func TestLexIdentifiersWithUnderscoresAndDigits(t *testing.T) {
	toks := lexKinds(t, "_tmp col_2 x9")
	for i, want := range []string{"_tmp", "col_2", "x9"} {
		if toks[i].kind != tokIdent || toks[i].text != want {
			t.Errorf("token %d = %+v", i, toks[i])
		}
	}
}

func TestLexNumbersEdgeCases(t *testing.T) {
	toks := lexKinds(t, "0 007 1.5 .5")
	if toks[0].text != "0" || toks[1].text != "007" || toks[2].text != "1.5" || toks[3].text != ".5" {
		t.Errorf("numbers: %v", toks[:4])
	}
	// A lone dot is a symbol (qualified-name separator), not a number.
	toks = lexKinds(t, "a.b")
	if toks[1].kind != tokSymbol || toks[1].text != "." {
		t.Errorf("qualified dot: %+v", toks[1])
	}
}
