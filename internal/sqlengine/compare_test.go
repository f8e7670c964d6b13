package sqlengine

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"sqlml/internal/row"
)

// TestCompareKernelMatchesValueCompare holds the compare and IN kernels to
// Value.Compare. Every operator runs through a WHERE and a CASE projection,
// in both operand orders, over every pair of edge values of one type — NULL,
// -0, NaN payloads, ±Inf, the BIGINT extremes — and of BIGINT against
// DOUBLE, where 2^53+1 widens to 2^53 and MinInt64 is exactly -2^63. A NULL
// operand gives FALSE. One-element IN and NOT IN lists run over the same
// pairs; the IN edge cases follow.
func TestCompareKernelMatchesValueCompare(t *testing.T) {
	nanA := math.Float64frombits(0x7ff8000000000001)
	nanB := math.Float64frombits(0xfff8000000000123)
	ints := []row.Value{row.NullOf(row.TypeInt), row.Int(math.MinInt64), row.Int(-1), row.Int(0), row.Int(1), row.Int(math.MaxInt64)}
	floats := []row.Value{row.NullOf(row.TypeFloat), row.Float(math.Inf(-1)), row.Float(-1.5), row.Float(math.Copysign(0, -1)), row.Float(0), row.Float(2), row.Float(math.Inf(1)), row.Float(nanA), row.Float(nanB)}
	strs := []row.Value{row.NullOf(row.TypeString), row.String_(""), row.String_("a"), row.String_("ab"), row.String_("b"), row.String_("é")}
	bools := []row.Value{row.NullOf(row.TypeBool), row.Bool(false), row.Bool(true)}
	wideInts := append([]row.Value{row.Int(1 << 53), row.Int(1<<53 + 1)}, ints...)
	wideFloats := append([]row.Value{row.Float(9007199254740992.0), row.Float(-9.223372036854776e18)}, floats...)

	ops := map[string]func(c int) bool{
		"=":  func(c int) bool { return c == 0 },
		"<>": func(c int) bool { return c != 0 },
		"<":  func(c int) bool { return c < 0 },
		"<=": func(c int) bool { return c <= 0 },
		">":  func(c int) bool { return c > 0 },
		">=": func(c int) bool { return c >= 0 },
	}
	in := func(a, b row.Value) bool { return !a.Null && !b.Null && a.Compare(b) == 0 }
	for _, tc := range []struct {
		name   string
		as, bs []row.Value
	}{
		{"BIGINT", ints, ints},
		{"DOUBLE", floats, floats},
		{"VARCHAR", strs, strs},
		{"BOOLEAN", bools, bools},
		{"BIGINT-DOUBLE", wideInts, wideFloats},
	} {
		e := newTestEngine(t)
		schema := row.MustSchema(
			row.Column{Name: "id", Type: row.TypeInt},
			row.Column{Name: "a", Type: tc.as[0].Kind},
			row.Column{Name: "b", Type: tc.bs[0].Kind},
		)
		var rows []row.Row
		for _, a := range tc.as {
			for _, b := range tc.bs {
				rows = append(rows, row.Row{row.Int(int64(len(rows))), a, b})
			}
		}
		if err := e.LoadTable("t", schema, rows); err != nil {
			t.Fatal(err)
		}
		for _, ord := range [][2]string{{"a", "b"}, {"b", "a"}} {
			// operands picks the pair in the predicate's operand order.
			operands := func(r row.Row) (row.Value, row.Value) {
				if ord[0] == "a" {
					return r[1], r[2]
				}
				return r[2], r[1]
			}
			preds := map[string]func(x, y row.Value) bool{
				ord[0] + " IN (" + ord[1] + ")":     in,
				ord[0] + " NOT IN (" + ord[1] + ")": func(x, y row.Value) bool { return !x.Null && !in(x, y) },
			}
			for op, holds := range ops {
				preds[ord[0]+" "+op+" "+ord[1]] = func(x, y row.Value) bool {
					return !x.Null && !y.Null && holds(x.Compare(y))
				}
			}
			for pred, want := range preds {
				var where, cases []string
				for _, r := range rows {
					hit := want(operands(r))
					if hit {
						where = append(where, fmt.Sprint(r[0]))
					}
					cases = append(cases, fmt.Sprintf("%v:%t", r[0], hit))
				}
				for _, q := range []struct {
					sql  string
					want []string
				}{
					{"SELECT id FROM t WHERE " + pred, where},
					{"SELECT id, CASE WHEN " + pred + " THEN TRUE ELSE FALSE END FROM t", cases},
				} {
					got, err := queryCells(e, q.sql)
					if err != nil {
						t.Fatalf("%s: %s: %v", tc.name, q.sql, err)
					}
					sort.Strings(got)
					sort.Strings(q.want)
					if fmt.Sprint(got) != fmt.Sprint(q.want) {
						t.Errorf("%s: %s:\n got  %v\n want %v", tc.name, q.sql, got, q.want)
					}
				}
			}
		}
	}

	// The IN edge cases: NaN matches NaN, -0 matches 0 and 1 matches 1.0
	// across types, an element of another type matches nothing, a NULL
	// needle is FALSE for IN and NOT IN alike, and the list stops at the
	// first match, left to right.
	e := newTestEngine(t)
	schema := row.MustSchema(
		row.Column{Name: "id", Type: row.TypeInt},
		row.Column{Name: "x", Type: row.TypeFloat},
		row.Column{Name: "y", Type: row.TypeFloat},
		row.Column{Name: "i", Type: row.TypeInt},
		row.Column{Name: "s", Type: row.TypeString},
	)
	if err := e.LoadTable("u", schema, []row.Row{
		{row.Int(1), row.Float(nanA), row.Float(nanB), row.Int(1), row.String_("a")},
		{row.Int(2), row.Float(math.Copysign(0, -1)), row.Float(0), row.Int(2), row.String_("b")},
		{row.Int(3), row.NullOf(row.TypeFloat), row.Float(1), row.NullOf(row.TypeInt), row.NullOf(row.TypeString)},
		{row.Int(4), row.Float(1.5), row.NullOf(row.TypeFloat), row.Int(math.MaxInt64), row.String_("1")},
	}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ sql, want string }{
		{"SELECT id FROM u WHERE x IN (y)", "1 2"},
		{"SELECT id FROM u WHERE x NOT IN (y)", "4"},
		{"SELECT id FROM u WHERE x IN (1.0, 0)", "2"},
		{"SELECT id FROM u WHERE i IN (1.0)", "1"},
		{"SELECT id FROM u WHERE s IN (1, 'a')", "1"},
		{"SELECT id FROM u WHERE s NOT IN (1, 'a')", "2 4"},
		{"SELECT id FROM u WHERE i IN (1, 2) OR i NOT IN (1, 2)", "1 2 4"},
		{"SELECT id, CASE WHEN i IN (1) THEN TRUE ELSE FALSE END, CASE WHEN i NOT IN (1) THEN TRUE ELSE FALSE END FROM u",
			"1:true:false 2:false:true 3:false:false 4:false:true"},
		{"SELECT id FROM u WHERE x IN (x, 1/0)", "1 2 4"},
		{"SELECT id FROM u WHERE x IN (1/0, x)", "error: sql: division by zero"},
	} {
		got, err := queryCells(e, c.sql)
		sort.Strings(got)
		s := strings.Join(got, " ")
		if err != nil {
			s = "error: " + err.Error()
		}
		if s != c.want {
			t.Errorf("%s = %q, want %q", c.sql, s, c.want)
		}
	}
}

// queryCells runs sql and renders each result row as its cells joined by
// ':' (NULL as "NULL").
func queryCells(e *Engine, sql string) ([]string, error) {
	res, err := e.Query(sql)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, r := range res.Rows() {
		cells := make([]string, len(r))
		for i, v := range r {
			cells[i] = v.String()
		}
		out = append(out, strings.Join(cells, ":"))
	}
	return out, nil
}
