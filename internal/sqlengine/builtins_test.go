package sqlengine

import (
	"math"
	"testing"

	"sqlml/internal/row"
)

func one(t *testing.T, e *Engine, sql string) row.Value {
	t.Helper()
	res, err := e.Query(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	rows := res.Rows()
	if len(rows) != 1 || len(rows[0]) != 1 {
		t.Fatalf("%s: expected a single value, got %v", sql, rows)
	}
	return rows[0][0]
}

func TestCaseExpression(t *testing.T) {
	e := newTestEngine(t)
	loadPaperTables(t, e)

	// The classic label-construction use: CASE over a categorical column.
	res, err := e.Query(`
		SELECT userid, CASE WHEN age < 30 THEN 'young'
		                    WHEN age < 55 THEN 'middle'
		                    ELSE 'senior' END AS bracket
		FROM users ORDER BY userid`)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows()
	want := []string{"senior", "middle", "middle", "young", "senior"}
	for i, w := range want {
		if got := rows[i][1].AsString(); got != w {
			t.Errorf("user %d: bracket = %q, want %q", i+1, got, w)
		}
	}
	if res.Schema.Cols[1].Type != row.TypeString {
		t.Errorf("CASE type = %s", res.Schema.Cols[1].Type)
	}
}

func TestCaseWithoutElseYieldsNull(t *testing.T) {
	e := newTestEngine(t)
	loadPaperTables(t, e)
	res, err := e.Query("SELECT CASE WHEN age > 100 THEN 1 END FROM users LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rows()[0][0].Null {
		t.Error("CASE without matching arm and no ELSE should be NULL")
	}
}

func TestCaseNumericUnification(t *testing.T) {
	e := newTestEngine(t)
	loadPaperTables(t, e)
	v := one(t, e, "SELECT CASE WHEN 1 = 1 THEN 2 ELSE 2.5 END FROM users LIMIT 1")
	if v.Kind != row.TypeFloat || v.AsFloat() != 2.0 {
		t.Errorf("unified CASE value = %v (%s)", v, v.Kind)
	}
}

func TestCaseInWhereAndAggregates(t *testing.T) {
	e := newTestEngine(t)
	loadPaperTables(t, e)
	// CASE inside an aggregate argument: count the young users.
	v := one(t, e, "SELECT SUM(CASE WHEN age < 40 THEN 1 ELSE 0 END) FROM users")
	if v.AsInt() != 2 {
		t.Errorf("young users = %v, want 2", v)
	}
}

func TestCaseErrors(t *testing.T) {
	e := newTestEngine(t)
	loadPaperTables(t, e)
	for _, sql := range []string{
		"SELECT CASE END FROM users",                              // no arms
		"SELECT CASE WHEN age THEN 1 END FROM users",              // non-boolean condition
		"SELECT CASE WHEN age > 1 THEN 1 ELSE 'x' END FROM users", // mixed arm types
		"SELECT CASE WHEN age > 1 THEN 1 ELSE 2 FROM users",       // missing END
	} {
		if _, err := e.Query(sql); err == nil {
			t.Errorf("%q should fail", sql)
		}
	}
}

func TestBuiltinFunctions(t *testing.T) {
	e := newTestEngine(t)
	loadPaperTables(t, e)
	cases := []struct {
		expr string
		want row.Value
	}{
		{"COALESCE(NULL, 'x')", row.String_("x")},
		{"ROUND(2.6)", row.Float(3)},
		{"FLOOR(2.6)", row.Float(2)},
		{"CEIL(2.1)", row.Float(3)},
		{"SUBSTR('abcdef', 2, 3)", row.String_("bcd")},
		{"SUBSTR('abc', 10, 2)", row.String_("")},
		{"CONCAT('a', 'b', 'c')", row.String_("abc")},
		{"TRIM('  x  ')", row.String_("x")},
		{"LEAST(3, 1.5)", row.Float(1.5)},
		{"GREATEST(3, 1.5)", row.Float(3)},
		{"SQRT(9)", row.Float(3)},
		{"UPPER('usa')", row.String_("USA")},
		{"LENGTH('hello')", row.Int(5)},
		{"LENGTH('héllo')", row.Int(5)},
		{"SUBSTR('héllo', 1, 2)", row.String_("hé")},
		{"ABS(-4)", row.Int(4)},
	}
	for _, c := range cases {
		got := one(t, e, "SELECT "+c.expr+" FROM users LIMIT 1")
		if !got.Equal(c.want) {
			t.Errorf("%s = %v, want %v", c.expr, got, c.want)
		}
	}
	if got := one(t, e, "SELECT LN(1) FROM users LIMIT 1"); math.Abs(got.AsFloat()) > 1e-12 {
		t.Errorf("LN(1) = %v", got)
	}
}

func TestBuiltinErrors(t *testing.T) {
	e := newTestEngine(t)
	loadPaperTables(t, e)
	for _, sql := range []string{
		"SELECT COALESCE() FROM users",
		"SELECT COALESCE(1, 'x') FROM users",
		"SELECT SUBSTR('a', 'b', 1) FROM users",
		"SELECT SQRT(-1) FROM users",
		"SELECT LN(0) FROM users",
		"SELECT CONCAT('a') FROM users",
	} {
		if _, err := e.Query(sql); err == nil {
			t.Errorf("%q should fail", sql)
		}
	}
}

func TestBuiltinNullPropagation(t *testing.T) {
	e := newTestEngine(t)
	if err := e.LoadTable("n", row.MustSchema(row.Column{Name: "s", Type: row.TypeString}), []row.Row{{row.NullOf(row.TypeString)}}); err != nil {
		t.Fatal(err)
	}
	for _, expr := range []string{"UPPER(s)", "TRIM(s)", "SUBSTR(s, 1, 2)", "CONCAT(s, 'x')"} {
		got := one(t, e, "SELECT "+expr+" FROM n")
		if !got.Null {
			t.Errorf("%s on NULL = %v, want NULL", expr, got)
		}
	}
}
