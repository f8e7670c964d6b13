package sqlengine

import (
	"strings"
	"testing"

	"sqlml/internal/row"
)

func mustSelect(t *testing.T, sql string) *SelectStmt {
	t.Helper()
	sel, err := ParseSelect(sql)
	if err != nil {
		t.Fatalf("ParseSelect(%q): %v", sql, err)
	}
	return sel
}

func TestParsePaperExampleQuery(t *testing.T) {
	sel := mustSelect(t, `
		SELECT U.age, U.gender, C.amount, C.abandoned
		FROM carts C, users U
		WHERE C.userid=U.userid AND U.country='USA'`)
	if len(sel.Items) != 4 {
		t.Fatalf("items = %d", len(sel.Items))
	}
	if len(sel.From) != 2 || sel.From[0].Table != "carts" || sel.From[0].Alias != "C" {
		t.Errorf("from = %+v", sel.From)
	}
	conj := Conjuncts(sel.Where)
	if len(conj) != 2 {
		t.Fatalf("conjuncts = %d", len(conj))
	}
	if conj[0].String() != "(c.userid = u.userid)" {
		t.Errorf("join cond = %s", conj[0])
	}
	if conj[1].String() != "(u.country = 'USA')" {
		t.Errorf("filter = %s", conj[1])
	}
}

func TestParseSelectAliases(t *testing.T) {
	sel := mustSelect(t, "SELECT a AS x, b y, c FROM t")
	if sel.Items[0].Alias != "x" || sel.Items[1].Alias != "y" || sel.Items[2].Alias != "" {
		t.Errorf("aliases: %+v", sel.Items)
	}
}

func TestParseStarForms(t *testing.T) {
	sel := mustSelect(t, "SELECT *, t.* FROM t")
	if !sel.Items[0].Star || sel.Items[0].StarQualifier != "" {
		t.Errorf("item0 = %+v", sel.Items[0])
	}
	if !sel.Items[1].Star || sel.Items[1].StarQualifier != "t" {
		t.Errorf("item1 = %+v", sel.Items[1])
	}
}

func TestParseExplicitJoinDesugarsToWhere(t *testing.T) {
	sel := mustSelect(t, "SELECT a FROM t1 JOIN t2 ON t1.id = t2.id WHERE t1.x > 5")
	if len(sel.From) != 2 {
		t.Fatalf("from = %+v", sel.From)
	}
	conj := Conjuncts(sel.Where)
	if len(conj) != 2 {
		t.Fatalf("conjuncts = %v", conj)
	}
}

func TestParseTableFunction(t *testing.T) {
	sel := mustSelect(t, "SELECT colname, colval FROM TABLE(distinct_values(T, 'gender,abandoned')) AS dv")
	if sel.From[0].Func == nil {
		t.Fatal("expected table function")
	}
	fn := sel.From[0].Func
	if fn.Name != "distinct_values" || len(fn.Args) != 2 {
		t.Fatalf("fn = %+v", fn)
	}
	if fn.Args[0].Table != "T" {
		t.Errorf("arg0 = %+v", fn.Args[0])
	}
	if fn.Args[1].Lit == nil || fn.Args[1].Lit.V.AsString() != "gender,abandoned" {
		t.Errorf("arg1 = %+v", fn.Args[1])
	}
	if sel.From[0].Name() != "dv" {
		t.Errorf("binding name = %q", sel.From[0].Name())
	}
}

func TestParseGroupByOrderByLimit(t *testing.T) {
	sel := mustSelect(t, `SELECT gender, COUNT(*), AVG(amount) a
		FROM t GROUP BY gender ORDER BY gender DESC, a LIMIT 10`)
	if len(sel.GroupBy) != 1 || sel.GroupBy[0].String() != "gender" {
		t.Errorf("group by = %v", sel.GroupBy)
	}
	if len(sel.OrderBy) != 2 || !sel.OrderBy[0].Desc || sel.OrderBy[1].Desc {
		t.Errorf("order by = %+v", sel.OrderBy)
	}
	if sel.Limit != 10 {
		t.Errorf("limit = %d", sel.Limit)
	}
	fc, ok := sel.Items[1].Expr.(*FuncCall)
	if !ok || !fc.Star {
		t.Errorf("COUNT(*) not parsed: %+v", sel.Items[1].Expr)
	}
}

func TestParseDistinct(t *testing.T) {
	sel := mustSelect(t, "SELECT DISTINCT colname, colvalue FROM v")
	if !sel.Distinct {
		t.Error("DISTINCT not parsed")
	}
}

func TestParsePredicates(t *testing.T) {
	cases := map[string]string{
		"SELECT a FROM t WHERE a IS NULL":             "(a IS NULL)",
		"SELECT a FROM t WHERE a IS NOT NULL":         "(a IS NOT NULL)",
		"SELECT a FROM t WHERE a IN (1, 2, 3)":        "(a IN (1, 2, 3))",
		"SELECT a FROM t WHERE a NOT IN (1)":          "(a NOT IN (1))",
		"SELECT a FROM t WHERE NOT a = 1":             "(NOT (a = 1))",
		"SELECT a FROM t WHERE a != 1":                "(a <> 1)",
		"SELECT a FROM t WHERE a BETWEEN 1 AND 5":     "((a >= 1) AND (a <= 5))",
		"SELECT a FROM t WHERE a = 1 OR b = 2":        "((a = 1) OR (b = 2))",
		"SELECT a FROM t WHERE a < 1 AND b >= 2.5":    "((a < 1) AND (b >= 2.5))",
		"SELECT a FROM t WHERE name = 'O''Brien'":     "(name = 'O''Brien')",
		"SELECT a FROM t WHERE a + 1 * 2 = 7":         "((a + (1 * 2)) = 7)",
		"SELECT a FROM t WHERE (a + 1) * 2 = 7":       "(((a + 1) * 2) = 7)",
		"SELECT a FROM t WHERE a = -3":                "(a = -3)",
		"SELECT a FROM t WHERE flag = TRUE":           "(flag = true)",
		"SELECT a FROM t WHERE a NOT BETWEEN 1 AND 2": "(NOT ((a >= 1) AND (a <= 2)))",
	}
	for sql, want := range cases {
		sel := mustSelect(t, sql)
		if got := sel.Where.String(); got != want {
			t.Errorf("%s:\n  got  %s\n  want %s", sql, got, want)
		}
	}
}

func TestParseOperatorPrecedence(t *testing.T) {
	sel := mustSelect(t, "SELECT a FROM t WHERE a = 1 AND b = 2 OR c = 3")
	want := "(((a = 1) AND (b = 2)) OR (c = 3))"
	if got := sel.Where.String(); got != want {
		t.Errorf("precedence: got %s want %s", got, want)
	}
}

func TestParseCreateTable(t *testing.T) {
	stmt, err := Parse("CREATE TABLE users (userid BIGINT, age BIGINT, gender VARCHAR, country VARCHAR)")
	if err != nil {
		t.Fatal(err)
	}
	ct, ok := stmt.(*CreateTableStmt)
	if !ok || ct.Name != "users" || len(ct.Cols) != 4 {
		t.Fatalf("stmt = %+v", stmt)
	}
	if ct.Cols[1].Type != row.TypeInt || ct.Cols[2].Type != row.TypeString {
		t.Errorf("col types: %+v", ct.Cols)
	}
}

func TestParseCreateTableAsSelect(t *testing.T) {
	stmt, err := Parse("CREATE TABLE m AS SELECT DISTINCT colname FROM v")
	if err != nil {
		t.Fatal(err)
	}
	ct := stmt.(*CreateTableStmt)
	if ct.AsSelect == nil || !ct.AsSelect.Distinct {
		t.Fatalf("CTAS not parsed: %+v", ct)
	}
}

func TestParseInsert(t *testing.T) {
	stmt, err := Parse("INSERT INTO t VALUES (1, 'a', 2.5), (2, 'b', NULL)")
	if err != nil {
		t.Fatal(err)
	}
	ins := stmt.(*InsertStmt)
	if ins.Table != "t" || len(ins.Rows) != 2 || len(ins.Rows[0]) != 3 {
		t.Fatalf("insert = %+v", ins)
	}
}

func TestParseDrop(t *testing.T) {
	stmt, err := Parse("DROP TABLE old;")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.(*DropTableStmt).Name != "old" {
		t.Errorf("drop = %+v", stmt)
	}
}

func TestParseErrors(t *testing.T) {
	for _, sql := range []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t GROUP",
		"SELECT a FROM t LIMIT -1",
		"SELECT a FROM t LIMIT x",
		"SELECT a t1 FROM t trailing garbage",
		"INSERT INTO t",
		"CREATE TABLE t",
		"CREATE TABLE t (a BLOB)",
		"SELECT a FROM t WHERE name = 'unterminated",
		"SELECT a FROM t WHERE a @ 1",
		"SELECT a FROM TABLE(f(1 + 2))", // table func args must be literals
	} {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) should fail", sql)
		}
	}
}

func TestConjunctsAndAll(t *testing.T) {
	sel := mustSelect(t, "SELECT a FROM t WHERE a = 1 AND b = 2 AND c = 3")
	conj := Conjuncts(sel.Where)
	if len(conj) != 3 {
		t.Fatalf("conjuncts = %d", len(conj))
	}
	rebuilt := AndAll(conj)
	if !strings.Contains(rebuilt.String(), "(a = 1)") {
		t.Errorf("AndAll lost a conjunct: %s", rebuilt)
	}
	if AndAll(nil) != nil {
		t.Error("AndAll(nil) should be nil")
	}
	if got := Conjuncts(nil); got != nil {
		t.Error("Conjuncts(nil) should be nil")
	}
}

func TestParseComments(t *testing.T) {
	sel := mustSelect(t, `SELECT a -- trailing comment
		FROM t -- another
		WHERE a = 1`)
	if sel.Where == nil {
		t.Error("comment swallowed the WHERE clause")
	}
}

// FuzzParse holds the SQL front end, which cmd/sqlsh exposes to whatever
// a user types, to two properties: Parse never panics, and every WHERE,
// select-item, GROUP BY and ORDER BY expression of an accepted SELECT
// prints as a string that parses back to the same string, with the same
// literal kinds in the same places. The seeds cover one input per grammar
// production; the last is the input that found the Latin-1 lexer bug.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"SELECT a, b AS c, t.* FROM t WHERE a = 1 AND b <> 'x' OR NOT c",
		"SELECT DISTINCT g, COUNT(*), SUM(v) FROM t GROUP BY g HAVING n > 2 ORDER BY g DESC, v ASC LIMIT 5",
		"SELECT * FROM TABLE(f(t, 'x', 3)) AS r",
		"SELECT a.x FROM a JOIN b ON a.id = b.id INNER JOIN c ON c.id = a.id",
		"SELECT CASE WHEN a > 1 THEN 'big' WHEN a IS NULL THEN NULL ELSE 'small' END FROM t",
		"SELECT a FROM t WHERE a IN (1, 2.5, -3) AND b NOT IN ('it''s') AND c BETWEEN 1 AND 2",
		"SELECT a FROM t WHERE a IS NULL OR b IS NOT NULL -- trailing comment\n",
		"SELECT -a, .5, 2., 1 - -2, v / 2.0 FROM t GROUP BY v / 2;",
		"SELECT café, İd FROM t",
		"CREATE TABLE t (a BIGINT, b VARCHAR)",
		"CREATE TABLE t2 AS SELECT a FROM t",
		"INSERT INTO t VALUES (1, 'x'), (2.0, NULL)",
		"DROP TABLE t",
		"SHOW TABLES",
		"DESCRIBE t",
		"SELECT*FROM A JOIN A ON \xce",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := Parse(src)
		if err != nil {
			return
		}
		sel, ok := stmt.(*SelectStmt)
		if c, isCreate := stmt.(*CreateTableStmt); isCreate && c.AsSelect != nil {
			sel, ok = c.AsSelect, true
		}
		if !ok {
			return
		}
		exprs := append([]Expr(nil), sel.GroupBy...)
		if sel.Where != nil {
			exprs = append(exprs, sel.Where)
		}
		for _, it := range sel.Items {
			if it.Expr != nil {
				exprs = append(exprs, it.Expr)
			}
		}
		for _, o := range sel.OrderBy {
			exprs = append(exprs, o.Expr)
		}
		for _, e := range exprs {
			s := e.String()
			back, err := ParseSelect("SELECT " + s + " FROM t")
			if err != nil {
				t.Fatalf("%q: %s does not parse back: %v", src, s, err)
			}
			if len(back.Items) != 1 || back.Items[0].Expr == nil || back.Items[0].Alias != "" {
				t.Fatalf("%q: %s parses back as %d items", src, s, len(back.Items))
			}
			re := back.Items[0].Expr
			if re.String() != s {
				t.Fatalf("%q: %s parses back as %s", src, s, re)
			}
			if a, b := litKinds(e), litKinds(re); a != b {
				t.Fatalf("%q: %s literal kinds %s, parsed back %s", src, s, a, b)
			}
		}
	})
}

// litKinds lists an expression's literals in walk order, by kind.
func litKinds(e Expr) string {
	var b strings.Builder
	walkExpr(e, func(sub Expr) {
		if l, ok := sub.(*Lit); ok {
			b.WriteString(l.V.Kind.String())
			if l.V.Null {
				b.WriteString(" NULL")
			}
			b.WriteString(";")
		}
	})
	return b.String()
}
