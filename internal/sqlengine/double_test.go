package sqlengine

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"sqlml/internal/cluster"
	"sqlml/internal/row"
)

// TestDoubleSemantics holds every path that compares DOUBLEs — the
// compare kernel, the join's hashed keys, GROUP BY and DISTINCT keys, the
// sort, and LEAST/GREATEST — to one rule, PostgreSQL's: -0 = 0, NaN = NaN, and NaN sorts
// above every number. t and u both hold {1, NaN, 0, NaN, -1, -0}, loaded in
// two input orders, at Parallelism 1 and 4.
func TestDoubleSemantics(t *testing.T) {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	orders := [][]float64{
		{1, nan, 0, nan, -1, negZero},
		{nan, 1, -1, 0, nan, negZero},
	}
	schema := row.MustSchema(
		row.Column{Name: "id", Type: row.TypeInt},
		row.Column{Name: "x", Type: row.TypeFloat},
	)
	for _, par := range []int{1, 4} {
		sorted := make([][]string, len(orders))
		for oi, xs := range orders {
			where := fmt.Sprintf("P=%d order %d", par, oi)
			e, err := New(cluster.NewTopology(5), nil, Config{HeadNodeID: 0, WorkerNodeIDs: []int{1, 2, 3, 4}, Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			var rows []row.Row
			for i, x := range xs {
				rows = append(rows, row.Row{row.Int(int64(i)), row.Float(x)})
			}
			for _, name := range []string{"t", "u"} {
				if err := e.LoadTable(name, schema, rows); err != nil {
					t.Fatal(err)
				}
			}
			query := func(sql string) []string {
				t.Helper()
				res, err := e.Query(sql)
				if err != nil {
					t.Fatalf("%s: %s: %v", where, sql, err)
				}
				return rowStrings(res.Rows())
			}
			bag := func(sql string) []string {
				got := query(sql)
				sort.Strings(got)
				return got
			}
			// Pairs (t.id, u.id) whose x values are equal, and less, under
			// the rule.
			var eq, lt []string
			for i, a := range xs {
				for j, b := range xs {
					pair := row.Row{row.Int(int64(i)), row.Int(int64(j))}.String()
					switch an, bn := math.IsNaN(a), math.IsNaN(b); {
					case an && bn, !an && !bn && a == b:
						eq = append(eq, pair)
					case !an && (bn || a < b):
						lt = append(lt, pair)
					}
				}
			}
			sort.Strings(eq)
			sort.Strings(lt)
			if len(eq) != 10 {
				t.Fatalf("the rule's equal pairs = %d, want 10", len(eq))
			}
			// Each case's rows, as a sorted bag; same, when set, must
			// answer the same bag.
			for _, c := range []struct {
				name, sql, same string
				want            []string
			}{
				{"hash join", "SELECT t.id, u.id FROM t, u WHERE t.x = u.x", "SELECT t.id, u.id FROM t, u WHERE t.x = u.x OR 1 = 0", eq},
				{"<= AND >= is =", "SELECT t.id, u.id FROM t, u WHERE t.x <= u.x AND t.x >= u.x", "", eq},
				{"< is NOT >=", "SELECT t.id, u.id FROM t, u WHERE t.x < u.x", "SELECT t.id, u.id FROM t, u WHERE NOT (t.x >= u.x)", lt},
				{"x = x keeps NaN", "SELECT id FROM t WHERE x = x", "SELECT id FROM t WHERE x IN (5, x)", bag("SELECT id FROM t")},
				{"x = 0 keeps -0", "SELECT COUNT(*) FROM t WHERE x = 0", "SELECT COUNT(*) FROM t WHERE x = -0.0", []string{"(2)"}},
				{"±0 and NaN group once each", "SELECT COUNT(*) FROM t GROUP BY x", "", []string{"(1)", "(1)", "(2)", "(2)"}},
				{"LEAST passes NaN over", "SELECT LEAST(x, 2.0) FROM t", "SELECT LEAST(2.0, x) FROM t", []string{"(-0)", "(-1)", "(0)", "(1)", "(2)", "(2)"}},
				{"GREATEST picks NaN", "SELECT GREATEST(x, 2.0) FROM t", "SELECT GREATEST(2.0, x) FROM t", []string{"(2)", "(2)", "(2)", "(2)", "(NaN)", "(NaN)"}},
			} {
				got := bag(c.sql)
				if fmt.Sprint(got) != fmt.Sprint(c.want) {
					t.Errorf("%s: %s:\n got  %v\n want %v", where, c.name, got, c.want)
				}
				if c.same != "" {
					if other := bag(c.same); fmt.Sprint(other) != fmt.Sprint(got) {
						t.Errorf("%s: %s: %s answers %v", where, c.name, c.same, other)
					}
				}
			}
			distinct := query("SELECT DISTINCT x FROM t")
			if len(distinct) != 4 {
				t.Errorf("%s: DISTINCT x = %v, want 4 values", where, distinct)
			}
			sorted[oi] = query("SELECT x FROM t ORDER BY x")
			if desc := query("SELECT x FROM t ORDER BY x DESC"); desc[0] != "(NaN)" || desc[1] != "(NaN)" {
				t.Errorf("%s: ORDER BY x DESC = %v, want the NaNs first", where, desc)
			}
		}
		if fmt.Sprint(sorted[0]) != fmt.Sprint(sorted[1]) {
			t.Errorf("P=%d: ORDER BY x depends on the input order:\n %v\n %v", par, sorted[0], sorted[1])
		}
		if n := len(sorted[0]); n != 6 || sorted[0][0] != "(-1)" || sorted[0][n-1] != "(NaN)" {
			t.Errorf("P=%d: ORDER BY x = %v, want -1 first and NaN last", par, sorted[0])
		}
	}
}
