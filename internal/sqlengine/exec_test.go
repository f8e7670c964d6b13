package sqlengine

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"sqlml/internal/cluster"
	"sqlml/internal/dfs"
	"sqlml/internal/row"
)

// newTestEngine builds a 5-node engine: node 0 is the head, 1-4 are
// workers — the paper's testbed layout.
func newTestEngine(t testing.TB) *Engine {
	t.Helper()
	topo := cluster.NewTopology(5)
	e, err := New(topo, nil, Config{HeadNodeID: 0, WorkerNodeIDs: []int{1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func usersSchema() row.Schema {
	return row.MustSchema(
		row.Column{Name: "userid", Type: row.TypeInt},
		row.Column{Name: "age", Type: row.TypeInt},
		row.Column{Name: "gender", Type: row.TypeString},
		row.Column{Name: "country", Type: row.TypeString},
	)
}

func cartsSchema() row.Schema {
	return row.MustSchema(
		row.Column{Name: "cartid", Type: row.TypeInt},
		row.Column{Name: "userid", Type: row.TypeInt},
		row.Column{Name: "amount", Type: row.TypeFloat},
		row.Column{Name: "abandoned", Type: row.TypeString},
	)
}

func loadPaperTables(t testing.TB, e *Engine) {
	t.Helper()
	users := []row.Row{
		{row.Int(1), row.Int(57), row.String_("F"), row.String_("USA")},
		{row.Int(2), row.Int(40), row.String_("M"), row.String_("USA")},
		{row.Int(3), row.Int(35), row.String_("F"), row.String_("USA")},
		{row.Int(4), row.Int(22), row.String_("M"), row.String_("Germany")},
		{row.Int(5), row.Int(61), row.String_("F"), row.String_("Greece")},
	}
	carts := []row.Row{
		{row.Int(100), row.Int(1), row.Float(314.62), row.String_("Yes")},
		{row.Int(101), row.Int(2), row.Float(former40_40), row.String_("Yes")},
		{row.Int(102), row.Int(3), row.Float(151.17), row.String_("No")},
		{row.Int(103), row.Int(4), row.Float(99.99), row.String_("No")},
		{row.Int(104), row.Int(1), row.Float(12.50), row.String_("No")},
	}
	if err := e.LoadTable("users", usersSchema(), users); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadTable("carts", cartsSchema(), carts); err != nil {
		t.Fatal(err)
	}
}

const former40_40 = 40.40

func sortedRows(res *Result) []row.Row {
	rows := res.Rows()
	sort.Slice(rows, func(i, j int) bool {
		for k := range rows[i] {
			c := rows[i][k].Compare(rows[j][k])
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	return rows
}

func TestPaperExampleQuery(t *testing.T) {
	e := newTestEngine(t)
	loadPaperTables(t, e)
	res, err := e.Query(`
		SELECT U.age, U.gender, C.amount, C.abandoned
		FROM carts C, users U
		WHERE C.userid=U.userid AND U.country='USA'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 4 {
		t.Fatalf("rows = %d, want 4 (USA carts only)", res.NumRows())
	}
	want := "age BIGINT, gender VARCHAR, amount DOUBLE, abandoned VARCHAR"
	if res.Schema.String() != want {
		t.Errorf("schema = %s", res.Schema)
	}
	rows := sortedRows(res)
	if rows[0][0].AsInt() != 35 || rows[0][1].AsString() != "F" {
		t.Errorf("first row = %v", rows[0])
	}
}

func TestSelectStarAndQualifiedStar(t *testing.T) {
	e := newTestEngine(t)
	loadPaperTables(t, e)
	res, err := e.Query("SELECT * FROM users")
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema.Len() != 4 || res.NumRows() != 5 {
		t.Fatalf("star: %s, %d rows", res.Schema, res.NumRows())
	}
	res, err = e.Query("SELECT u.*, c.amount FROM users u, carts c WHERE u.userid = c.userid")
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema.Len() != 5 {
		t.Errorf("qualified star schema: %s", res.Schema)
	}
	if res.NumRows() != 5 {
		t.Errorf("join rows = %d", res.NumRows())
	}
}

func TestFilterPredicates(t *testing.T) {
	e := newTestEngine(t)
	loadPaperTables(t, e)
	cases := []struct {
		where string
		want  int
	}{
		{"age > 40", 2},
		{"age >= 40", 3},
		{"age BETWEEN 30 AND 50", 2},
		{"country = 'USA' AND gender = 'F'", 2},
		{"country = 'USA' OR country = 'Greece'", 4},
		{"country IN ('Germany', 'Greece')", 2},
		{"country NOT IN ('USA')", 2},
		{"NOT country = 'USA'", 2},
		{"gender IS NULL", 0},
		{"gender IS NOT NULL", 5},
		{"age + 10 > 50", 2},
		{"age * 2 = 80", 1},
		{"UPPER(country) = 'USA'", 3},
	}
	for _, c := range cases {
		res, err := e.Query("SELECT userid FROM users WHERE " + c.where)
		if err != nil {
			t.Fatalf("%s: %v", c.where, err)
		}
		if res.NumRows() != c.want {
			t.Errorf("WHERE %s: got %d rows, want %d", c.where, res.NumRows(), c.want)
		}
	}
}

func TestJoinThreeWay(t *testing.T) {
	e := newTestEngine(t)
	loadPaperTables(t, e)
	// Recode-map style self-join: the paper's phase-2 recode query shape.
	if err := e.LoadTable("m", row.MustSchema(
		row.Column{Name: "colname", Type: row.TypeString},
		row.Column{Name: "colval", Type: row.TypeString},
		row.Column{Name: "recodeval", Type: row.TypeInt},
	), []row.Row{
		{row.String_("gender"), row.String_("F"), row.Int(1)},
		{row.String_("gender"), row.String_("M"), row.Int(2)},
		{row.String_("abandoned"), row.String_("Yes"), row.Int(1)},
		{row.String_("abandoned"), row.String_("No"), row.Int(2)},
	}); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(`
		SELECT U.age, Mg.recodeVal AS gender, C.amount, Ma.recodeVal AS abandoned
		FROM carts C, users U, m AS Mg, m AS Ma
		WHERE C.userid = U.userid
		  AND Mg.colName = 'gender' AND U.gender = Mg.colVal
		  AND Ma.colName = 'abandoned' AND C.abandoned = Ma.colVal`)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 5 {
		t.Fatalf("rows = %d, want 5", res.NumRows())
	}
	for _, r := range res.Rows() {
		g := r[1].AsInt()
		if g != 1 && g != 2 {
			t.Errorf("recoded gender = %d", g)
		}
	}
	if res.Schema.Cols[1].Name != "gender" || res.Schema.Cols[1].Type != row.TypeInt {
		t.Errorf("recoded schema: %s", res.Schema)
	}
}

func TestJoinOnClause(t *testing.T) {
	e := newTestEngine(t)
	loadPaperTables(t, e)
	res, err := e.Query("SELECT c.cartid FROM carts c JOIN users u ON c.userid = u.userid WHERE u.age > 50")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 2 {
		t.Errorf("rows = %d, want 2 (user 1 has two carts)", res.NumRows())
	}
}

func TestJoinNullKeysNeverMatch(t *testing.T) {
	e := newTestEngine(t)
	s := row.MustSchema(row.Column{Name: "k", Type: row.TypeInt}, row.Column{Name: "v", Type: row.TypeString})
	if err := e.LoadTable("l", s, []row.Row{
		{row.Int(1), row.String_("a")},
		{row.NullOf(row.TypeInt), row.String_("b")},
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadTable("r", s, []row.Row{
		{row.Int(1), row.String_("x")},
		{row.NullOf(row.TypeInt), row.String_("y")},
	}); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query("SELECT l.v, r.v FROM l, r WHERE l.k = r.k")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 {
		t.Errorf("null join keys matched: %d rows", res.NumRows())
	}
}

func TestCrossNumericJoinKey(t *testing.T) {
	e := newTestEngine(t)
	if err := e.LoadTable("li", row.MustSchema(row.Column{Name: "k", Type: row.TypeInt}), []row.Row{{row.Int(2)}}); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadTable("rf", row.MustSchema(row.Column{Name: "k", Type: row.TypeFloat}), []row.Row{{row.Float(2.0)}}); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query("SELECT li.k FROM li, rf WHERE li.k = rf.k")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 {
		t.Errorf("BIGINT/DOUBLE join failed: %d rows", res.NumRows())
	}
}

func TestCartesianJoin(t *testing.T) {
	e := newTestEngine(t)
	s := row.MustSchema(row.Column{Name: "v", Type: row.TypeInt})
	if err := e.LoadTable("a", s, []row.Row{{row.Int(1)}, {row.Int(2)}}); err != nil {
		t.Fatal(err)
	}
	s2 := row.MustSchema(row.Column{Name: "w", Type: row.TypeInt})
	if err := e.LoadTable("b", s2, []row.Row{{row.Int(10)}, {row.Int(20)}, {row.Int(30)}}); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query("SELECT v, w FROM a, b")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 6 {
		t.Errorf("cartesian rows = %d, want 6", res.NumRows())
	}
}

func TestDistinct(t *testing.T) {
	e := newTestEngine(t)
	loadPaperTables(t, e)
	res, err := e.Query("SELECT DISTINCT country FROM users")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 3 {
		t.Errorf("distinct countries = %d, want 3", res.NumRows())
	}
	res, err = e.Query("SELECT DISTINCT gender, country FROM users")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 4 {
		t.Errorf("distinct pairs = %d, want 4", res.NumRows())
	}
}

func TestAggregates(t *testing.T) {
	e := newTestEngine(t)
	loadPaperTables(t, e)
	res, err := e.Query("SELECT COUNT(*), SUM(age), AVG(age), MIN(age), MAX(age) FROM users")
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows()
	if len(rows) != 1 {
		t.Fatalf("global aggregate rows = %d", len(rows))
	}
	r := rows[0]
	if r[0].AsInt() != 5 || r[1].AsInt() != 215 || r[3].AsInt() != 22 || r[4].AsInt() != 61 {
		t.Errorf("aggregates = %v", r)
	}
	if av := r[2].AsFloat(); av != 43.0 {
		t.Errorf("avg = %v", av)
	}
}

func TestGroupBy(t *testing.T) {
	e := newTestEngine(t)
	loadPaperTables(t, e)
	res, err := e.Query(`SELECT country, COUNT(*) AS n, AVG(age) AS avg_age
		FROM users GROUP BY country ORDER BY country`)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows()
	if len(rows) != 3 {
		t.Fatalf("groups = %d", len(rows))
	}
	if rows[0][0].AsString() != "Germany" || rows[0][1].AsInt() != 1 {
		t.Errorf("group 0 = %v", rows[0])
	}
	if rows[2][0].AsString() != "USA" || rows[2][1].AsInt() != 3 {
		t.Errorf("group 2 = %v", rows[2])
	}
}

func TestGroupByQualifiedColumn(t *testing.T) {
	e := newTestEngine(t)
	loadPaperTables(t, e)
	res, err := e.Query(`SELECT u.gender, COUNT(*) FROM users u GROUP BY u.gender`)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 2 {
		t.Errorf("groups = %d", res.NumRows())
	}
}

func TestAggregateErrors(t *testing.T) {
	e := newTestEngine(t)
	loadPaperTables(t, e)
	for _, sql := range []string{
		"SELECT age FROM users GROUP BY country",      // not in group by
		"SELECT SUM(gender) FROM users",               // non-numeric sum
		"SELECT MIN(*) FROM users",                    // star on non-count
		"SELECT * FROM users GROUP BY country",        // star with group by
		"SELECT COUNT(age, gender) FROM users",        // arity
		"SELECT userid FROM users WHERE SUM(age) > 1", // aggregate in WHERE
	} {
		if _, err := e.Query(sql); err == nil {
			t.Errorf("%s should fail", sql)
		}
	}
	// Float and integer division are different expressions, however the
	// literal 2.0 prints.
	for _, sql := range []string{
		"SELECT age / 2.0 FROM users GROUP BY age / 2",
		"SELECT age / 2 FROM users GROUP BY age / 2.0",
	} {
		if _, err := e.Query(sql); err == nil || !strings.Contains(err.Error(), "neither an aggregate nor in GROUP BY") {
			t.Errorf("%s: err = %v, want neither an aggregate nor in GROUP BY", sql, err)
		}
	}
}

// TestBigintSumOverflowFails: a BIGINT SUM or AVG that leaves the int64
// range fails the query instead of wrapping, whether the overflow happens
// within a partition's partial or in the merge of partials.
func TestBigintSumOverflowFails(t *testing.T) {
	e := newTestEngine(t)
	s := row.MustSchema(row.Column{Name: "v", Type: row.TypeInt}, row.Column{Name: "g", Type: row.TypeInt})
	rows := []row.Row{
		{row.Int(math.MaxInt64), row.Int(1)}, {row.Int(1), row.Int(1)},
		{row.Int(math.MaxInt64), row.Int(2)}, {row.Int(math.MaxInt64), row.Int(2)},
	}
	// big_add holds every row in one partition, so the partial overflows;
	// big_merge holds one row per partition, so the merge does.
	if err := e.LoadPartitionedTable("big_add", s, [][]row.Row{rows, nil, nil, nil}); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadTable("big_merge", s, rows); err != nil {
		t.Fatal(err)
	}
	for _, table := range []string{"big_add", "big_merge"} {
		for _, agg := range []string{"SUM", "AVG"} {
			for _, sql := range []string{
				"SELECT g, " + agg + "(v) FROM " + table + " GROUP BY g",
				"SELECT " + agg + "(v) FROM " + table,
			} {
				want := "sql: " + agg + " overflows BIGINT"
				if _, err := e.Query(sql); err == nil || err.Error() != want {
					t.Errorf("%s: err = %v, want %q", sql, err, want)
				}
			}
		}
	}
}

// TestBigintArithmeticOverflowFails: BIGINT +, -, *, unary minus,
// MinInt64 / -1 and ABS(MinInt64) fail the query when the exact result
// leaves the int64 range — in the projection kernels, in HAVING, and in a
// constant-folded expression — while results at the range's edges, and
// NULL operands, still evaluate.
func TestBigintArithmeticOverflowFails(t *testing.T) {
	e := newTestEngine(t)
	s := row.MustSchema(row.Column{Name: "v", Type: row.TypeInt}, row.Column{Name: "w", Type: row.TypeInt})
	if err := e.LoadTable("big", s, []row.Row{{row.Int(math.MaxInt64), row.Int(math.MinInt64)}}); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadTable("bignull", s, []row.Row{{row.Int(math.MaxInt64), row.NullOf(row.TypeInt)}}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ sql, want string }{
		{"SELECT v + 1 FROM big", "sql: BIGINT overflow in +"},
		{"SELECT v * 2 FROM big", "sql: BIGINT overflow in *"},
		{"SELECT w - 1 FROM big", "sql: BIGINT overflow in -"},
		{"SELECT -w FROM big", "sql: BIGINT overflow in -"},
		{"SELECT w / -1 FROM big", "sql: BIGINT overflow in /"},
		{"SELECT v, COUNT(*) FROM big GROUP BY v HAVING v + 1 < 0", "sql: BIGINT overflow in +"},
		{"SELECT 9223372036854775807 * 2 FROM big", "sql: BIGINT overflow in *"},
		{"SELECT ABS(w) FROM big", "sql: abs: BIGINT overflow"},
	} {
		if _, err := e.Query(c.sql); err == nil || err.Error() != c.want {
			t.Errorf("%s: err = %v, want %q", c.sql, err, c.want)
		}
	}
	for _, c := range []struct{ sql, want string }{
		{"SELECT v - 1, w + 1, -v, v * -1, w / 1, w * 1, v + w FROM big",
			"[(9223372036854775806, -9223372036854775807, -9223372036854775807, -9223372036854775807, -9223372036854775808, -9223372036854775808, -1)]"},
		{"SELECT v * w, w - v, w / -1, -w FROM bignull", "[(NULL, NULL, NULL, NULL)]"},
		{"SELECT ABS(w + 1), ABS(v) FROM big", "[(9223372036854775807, 9223372036854775807)]"},
		{"SELECT ABS(w) FROM bignull", "[(NULL)]"},
	} {
		res, err := e.Query(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if got := fmt.Sprint(res.Rows()); got != c.want {
			t.Errorf("%s = %s, want %s", c.sql, got, c.want)
		}
	}
}

func TestCountNullSkipping(t *testing.T) {
	e := newTestEngine(t)
	s := row.MustSchema(row.Column{Name: "v", Type: row.TypeInt})
	if err := e.LoadTable("nt", s, []row.Row{{row.Int(1)}, {row.NullOf(row.TypeInt)}, {row.Int(3)}}); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query("SELECT COUNT(*), COUNT(v), SUM(v) FROM nt")
	if err != nil {
		t.Fatal(err)
	}
	r := res.Rows()[0]
	if r[0].AsInt() != 3 || r[1].AsInt() != 2 || r[2].AsInt() != 4 {
		t.Errorf("null handling: %v", r)
	}
}

func TestEmptyAggregate(t *testing.T) {
	e := newTestEngine(t)
	loadPaperTables(t, e)
	res, err := e.Query("SELECT COUNT(*), SUM(age), MIN(age) FROM users WHERE age > 1000")
	if err != nil {
		t.Fatal(err)
	}
	r := res.Rows()[0]
	if r[0].AsInt() != 0 {
		t.Errorf("count over empty = %v", r[0])
	}
	if !r[1].Null || !r[2].Null {
		t.Errorf("sum/min over empty should be NULL: %v", r)
	}
}

func TestOrderByLimit(t *testing.T) {
	e := newTestEngine(t)
	loadPaperTables(t, e)
	res, err := e.Query("SELECT userid, age FROM users ORDER BY age DESC LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows()
	if len(rows) != 2 || rows[0][1].AsInt() != 61 || rows[1][1].AsInt() != 57 {
		t.Errorf("order/limit: %v", rows)
	}
}

func TestLimitWithoutOrder(t *testing.T) {
	e := newTestEngine(t)
	loadPaperTables(t, e)
	res, err := e.Query("SELECT userid FROM users LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 3 {
		t.Errorf("limit rows = %d", res.NumRows())
	}
	res, err = e.Query("SELECT userid FROM users LIMIT 0")
	if err != nil || res.NumRows() != 0 {
		t.Errorf("limit 0: %d rows, %v", res.NumRows(), err)
	}
}

func TestCreateInsertDrop(t *testing.T) {
	e := newTestEngine(t)
	if _, err := e.Run("CREATE TABLE t (a BIGINT, b VARCHAR, c DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run("INSERT INTO t VALUES (1, 'x', 1.5), (2, 'y', NULL), (3, NULL, 2)"); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query("SELECT * FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 3 {
		t.Fatalf("rows = %d", res.NumRows())
	}
	// INSERT coerces BIGINT literal 2 into DOUBLE column c.
	found := false
	for _, r := range res.Rows() {
		if r[0].AsInt() == 3 && !r[2].Null && r[2].AsFloat() == 2.0 {
			found = true
		}
	}
	if !found {
		t.Error("coerced insert row missing")
	}
	if _, err := e.Run("DROP TABLE t"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query("SELECT * FROM t"); err == nil {
		t.Error("query after drop should fail")
	}
}

func TestCreateTableAsSelect(t *testing.T) {
	e := newTestEngine(t)
	loadPaperTables(t, e)
	if _, err := e.Run("CREATE TABLE usa AS SELECT userid, age FROM users WHERE country = 'USA'"); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query("SELECT COUNT(*) FROM usa")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows()[0][0].AsInt() != 3 {
		t.Errorf("CTAS count = %v", res.Rows()[0][0])
	}
}

func TestTableUDFPerPartition(t *testing.T) {
	e := newTestEngine(t)
	loadPaperTables(t, e)
	// A parallel table UDF that tags each row with its partition id.
	err := e.Registry().RegisterTable(&TableUDF{
		Name:         "tag_partition",
		PerPartition: true,
		OutSchema: func(in row.Schema, args []row.Value) (row.Schema, error) {
			return in.Concat(row.MustSchema(row.Column{Name: "part", Type: row.TypeInt}))
		},
		Fn: func(ctx *UDFContext, in ColBatchSource, args []row.Value, emit func(*row.ColBatch) error) error {
			return appendColumn(in, emit, func() int64 { return int64(ctx.Partition) })
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Query("SELECT userid, part FROM TABLE(tag_partition(users))")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 5 {
		t.Fatalf("rows = %d", res.NumRows())
	}
	partsSeen := map[int64]bool{}
	for _, r := range res.Rows() {
		partsSeen[r[1].AsInt()] = true
	}
	if len(partsSeen) < 2 {
		t.Errorf("UDF did not run per partition: partitions seen = %v", partsSeen)
	}
}

// appendColumn copies every input batch's live rows into an output batch
// with one more BIGINT column, filled row by row from next, and emits it.
func appendColumn(in ColBatchSource, emit func(*row.ColBatch) error, next func() int64) error {
	out := row.NewColBatch(nil)
	for {
		b, ok, err := in.NextCol()
		if err != nil || !ok {
			return err
		}
		types := make([]row.Type, 0, b.NumCols()+1)
		for c := 0; c < b.NumCols(); c++ {
			types = append(types, b.Col(c).Type())
		}
		out.Reset(append(types, row.TypeInt))
		for si := 0; si < b.Len(); si++ {
			for c := 0; c < b.NumCols(); c++ {
				out.Col(c).AppendFrom(b.Col(c), b.SelPos(si))
			}
			out.Col(b.NumCols()).AppendInt(next())
		}
		out.SetFullLen(b.Len())
		if err := emit(out); err != nil {
			return err
		}
	}
}

func TestTableUDFGlobal(t *testing.T) {
	e := newTestEngine(t)
	loadPaperTables(t, e)
	// A global UDF numbering rows consecutively (like recode-id assignment).
	err := e.Registry().RegisterTable(&TableUDF{
		Name: "number_rows",
		OutSchema: func(in row.Schema, args []row.Value) (row.Schema, error) {
			return in.Concat(row.MustSchema(row.Column{Name: "rn", Type: row.TypeInt}))
		},
		Fn: func(ctx *UDFContext, in ColBatchSource, args []row.Value, emit func(*row.ColBatch) error) error {
			if ctx.NumPartitions != 1 {
				return fmt.Errorf("global UDF saw %d partitions", ctx.NumPartitions)
			}
			n := int64(0)
			return appendColumn(in, emit, func() int64 { n++; return n })
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Query("SELECT rn FROM TABLE(number_rows(users)) ORDER BY rn")
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows()
	if len(rows) != 5 || rows[0][0].AsInt() != 1 || rows[4][0].AsInt() != 5 {
		t.Errorf("global numbering: %v", rows)
	}
}

func TestUDFWithLiteralArgs(t *testing.T) {
	e := newTestEngine(t)
	loadPaperTables(t, e)
	err := e.Registry().RegisterTable(&TableUDF{
		Name:         "filter_gt",
		PerPartition: true,
		OutSchema: func(in row.Schema, args []row.Value) (row.Schema, error) {
			if len(args) != 2 {
				return row.Schema{}, fmt.Errorf("need column name and threshold")
			}
			return in, nil
		},
		Fn: func(ctx *UDFContext, in ColBatchSource, args []row.Value, emit func(*row.ColBatch) error) error {
			// Column index is resolved per call; cheap for the test.
			col := args[0].AsString()
			thr := args[1].AsInt()
			idx := usersSchema().ColIndex(col)
			var sel []int32
			for {
				b, ok, err := in.NextCol()
				if err != nil || !ok {
					return err
				}
				// Emit the input batch itself, narrowed to the passing rows.
				v := b.Col(idx)
				sel = sel[:0]
				for si := 0; si < b.Len(); si++ {
					if p := b.SelPos(si); !v.Null(p) && v.Ints[p] > thr {
						sel = append(sel, int32(p))
					}
				}
				if len(sel) == 0 {
					continue // a nil selection would mean every row
				}
				b.SetSel(sel)
				if err := emit(b); err != nil {
					return err
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Query("SELECT userid FROM TABLE(filter_gt(users, 'age', 40))")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 2 {
		t.Errorf("filtered rows = %d, want 2", res.NumRows())
	}
}

func TestExternalTableScan(t *testing.T) {
	topo := cluster.NewTopology(5)
	cost := &cluster.CostModel{DiskReadBps: 1e6, DiskWriteBps: 1e6, NetBps: 1e6}
	fsys := dfs.New(topo, dfs.Config{BlockSize: 64, Replication: 3, Cost: cost})
	e, err := New(topo, cost, Config{HeadNodeID: 0, WorkerNodeIDs: []int{1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	var rows []row.Row
	for i := 0; i < 50; i++ {
		rows = append(rows, row.Row{row.Int(int64(i)), row.Int(int64(20 + i%50)), row.String_([]string{"F", "M"}[i%2]), row.String_("USA")})
	}
	var buf []byte
	w, err := fsys.Create("/tables/users.txt", topo.Node(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		buf = row.AppendLine(buf[:0], r)
		if _, err := w.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterExternalTable("eusers", fsys, "/tables/users.txt", usersSchema()); err != nil {
		t.Fatal(err)
	}
	cost.ResetStats()
	res, err := e.Query("SELECT COUNT(*) FROM eusers")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows()[0][0].AsInt() != 50 {
		t.Fatalf("count = %v", res.Rows()[0][0])
	}
	if cost.Stats().DiskReadBytes == 0 {
		t.Error("external scan did not charge DFS reads")
	}
	// Second scan pays again (no hidden caching).
	before := cost.Stats().DiskReadBytes
	if _, err := e.Query("SELECT COUNT(*) FROM eusers"); err != nil {
		t.Fatal(err)
	}
	if cost.Stats().DiskReadBytes <= before {
		t.Error("second external scan should charge DFS reads again")
	}
}

func TestExportToDFSAndScanDirectory(t *testing.T) {
	topo := cluster.NewTopology(5)
	fsys := dfs.New(topo, dfs.Config{BlockSize: 128})
	e, err := New(topo, nil, Config{HeadNodeID: 0, WorkerNodeIDs: []int{1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	loadPaperTables(t, e)
	res, err := e.Query("SELECT userid, age FROM users")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ExportToDFS(res, fsys, "/out/users"); err != nil {
		t.Fatal(err)
	}
	files := fsys.List("/out/users")
	if len(files) != 4 {
		t.Fatalf("part files = %v", files)
	}
	if err := e.RegisterExternalTable("back", fsys, "/out/users", res.Schema); err != nil {
		t.Fatal(err)
	}
	count := func(when string) {
		t.Helper()
		res2, err := e.Query("SELECT COUNT(*) FROM back")
		if err != nil {
			t.Fatal(err)
		}
		if res2.Rows()[0][0].AsInt() != 5 {
			t.Errorf("directory scan count %s = %v, want 5", when, res2.Rows()[0][0])
		}
	}
	count("after export")
	// An orphaned task-attempt scratch file (a crash between write and
	// rename) is not table data: names starting with "_" are skipped.
	if err := fsys.WriteFile("/out/users/_attempt-00000-0", []byte("99,30\n"), topo.Node(1)); err != nil {
		t.Fatal(err)
	}
	count("with an orphaned _attempt file")
}

// TestExportNullColumnsAsRows pins the export of columns that are NULL
// throughout, the one place the batch writer's shape check
// (ColBatch.Conforms: vector types) is stricter than the row writer's
// (Row.Conforms: a NULL of any kind passes). A NULL literal and an
// all-NULL CASE are typed VARCHAR in the schema and in their vectors
// alike, so every part file holds exactly the lines AppendLine writes for
// its partition's rows, on a materialized and on a streaming result.
func TestExportNullColumnsAsRows(t *testing.T) {
	topo := cluster.NewTopology(5)
	fsys := dfs.New(topo, dfs.Config{BlockSize: 128})
	e, err := New(topo, nil, Config{HeadNodeID: 0, WorkerNodeIDs: []int{1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	loadPaperTables(t, e)
	const sql = "SELECT NULL AS x, userid, CASE WHEN userid > 3 THEN NULL END AS y, country FROM users"
	ref, err := e.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := ref.Parts()
	if err != nil {
		t.Fatal(err)
	}
	stream, err := e.QueryStream(sql)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, res := range []*Result{ref, stream} {
		dir := fmt.Sprintf("/out/streaming=%v", res.Streaming())
		if err := e.ExportToDFS(res, fsys, dir); err != nil {
			t.Fatal(err)
		}
		for i, p := range parts {
			var want []byte
			for _, r := range p {
				want = row.AppendLine(want, r)
			}
			got, err := fsys.ReadFile(fmt.Sprintf("%s/part-%05d", dir, i), topo.Node(0))
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("%s part %d: wrote %q, rows encode to %q", dir, i, got, want)
			}
			if len(got) > 0 {
				lines = append(lines, strings.Split(strings.TrimSuffix(string(got), "\n"), "\n")...)
			}
		}
	}
	sort.Strings(lines)
	want := []string{",1,,USA", ",1,,USA", ",2,,USA", ",2,,USA", ",3,,USA", ",3,,USA", ",4,,Germany", ",4,,Germany", ",5,,Greece", ",5,,Greece"}
	if fmt.Sprint(lines) != fmt.Sprint(want) {
		t.Errorf("exported lines %q, want %q", lines, want)
	}
}

// TestNullLiteralTakesContextType: a bare NULL is typed by its peer — the
// other operand of a binary operator (BOOLEAN under AND/OR), the other
// arms of a CASE, the other arguments of COALESCE — so the feature-prep
// idioms below compile and answer SQL's values; with no typed peer it stays
// VARCHAR. Each case pins the result's column types, the type of every
// cell (NULLs included) and the rows, ordered by userid.
func TestNullLiteralTakesContextType(t *testing.T) {
	e := newTestEngine(t)
	loadPaperTables(t, e)
	for _, c := range []struct {
		sql   string
		types []row.Type
		rows  string
	}{
		{"SELECT userid, NULL + 1 AS x FROM users", []row.Type{row.TypeInt, row.TypeInt},
			"[(1, NULL) (2, NULL) (3, NULL) (4, NULL) (5, NULL)]"},
		{"SELECT userid FROM users WHERE userid = NULL", []row.Type{row.TypeInt}, "[]"},
		{"SELECT userid FROM users WHERE NULL <> userid OR userid < NULL", []row.Type{row.TypeInt}, "[]"},
		{"SELECT userid, CASE WHEN userid = 1 THEN 1 ELSE NULL END AS x FROM users", []row.Type{row.TypeInt, row.TypeInt},
			"[(1, 1) (2, NULL) (3, NULL) (4, NULL) (5, NULL)]"},
		{"SELECT userid, CASE WHEN userid = 1 THEN NULL WHEN userid = 2 THEN 2.5 ELSE 3 END AS x FROM users", []row.Type{row.TypeInt, row.TypeFloat},
			"[(1, NULL) (2, 2.5) (3, 3) (4, 3) (5, 3)]"},
		{"SELECT userid, COALESCE(NULL, userid) AS x FROM users", []row.Type{row.TypeInt, row.TypeInt},
			"[(1, 1) (2, 2) (3, 3) (4, 4) (5, 5)]"},
		{"SELECT userid FROM users WHERE NULL OR userid = 2", []row.Type{row.TypeInt}, "[(2)]"},
		{"SELECT userid, NULL AS x, CASE WHEN userid > 3 THEN NULL ELSE NULL END AS y FROM users WHERE userid < 3",
			[]row.Type{row.TypeInt, row.TypeString, row.TypeString}, "[(1, NULL, NULL) (2, NULL, NULL)]"},
	} {
		res, err := e.Query(c.sql)
		if err != nil {
			t.Errorf("%s: %v", c.sql, err)
			continue
		}
		if got := row.SchemaTypes(res.Schema); fmt.Sprint(got) != fmt.Sprint(c.types) {
			t.Errorf("%s: column types %v, want %v", c.sql, got, c.types)
		}
		rows := sortedRows(res)
		for _, r := range rows {
			for i, v := range r {
				if i < len(c.types) && v.Kind != c.types[i] {
					t.Errorf("%s: row %v cell %d is %s, want %s", c.sql, r, i, v.Kind, c.types[i])
				}
			}
		}
		if got := fmt.Sprint(rows); got != c.rows {
			t.Errorf("%s: rows %s, want %s", c.sql, got, c.rows)
		}
	}
}

func TestQueryErrors(t *testing.T) {
	e := newTestEngine(t)
	loadPaperTables(t, e)
	for _, sql := range []string{
		"SELECT nosuch FROM users",
		"SELECT userid FROM nosuch",
		"SELECT users.userid FROM users u",                          // alias replaces the table name
		"SELECT userid FROM users, carts",                           // ambiguous userid
		"SELECT u.userid FROM users u, users u2 WHERE u.gender = 1", // type mismatch... actually string vs int
		"SELECT userid FROM users WHERE country + 1 = 2",            // string arithmetic
		"SELECT userid FROM users WHERE age = 'x' AND nosuchfn(age) = 1",
		"SELECT userid FROM TABLE(nosuchudf(users))",
		"SELECT userid FROM users u, carts u", // duplicate binding
	} {
		if _, err := e.Query(sql); err == nil {
			t.Errorf("%q should fail", sql)
		}
	}
}

func TestInsertErrors(t *testing.T) {
	e := newTestEngine(t)
	loadPaperTables(t, e)
	if _, err := e.Run("INSERT INTO users VALUES (1, 2)"); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := e.Run("INSERT INTO users VALUES ('x', 1, 'F', 'USA')"); err == nil {
		t.Error("uncoercible value accepted")
	}
	if _, err := e.Run("INSERT INTO nosuch VALUES (1)"); err == nil {
		t.Error("insert into missing table accepted")
	}
}

func TestDivisionByZero(t *testing.T) {
	e := newTestEngine(t)
	loadPaperTables(t, e)
	if _, err := e.Query("SELECT age / 0 FROM users"); err == nil {
		t.Error("integer division by zero should error")
	}
	if _, err := e.Query("SELECT amount / 0 FROM carts"); err == nil {
		t.Error("float division by zero should error")
	}
}

func TestScalarUDFRegistration(t *testing.T) {
	e := newTestEngine(t)
	loadPaperTables(t, e)
	err := e.Registry().RegisterScalar(&ScalarUDF{
		Name: "double_it",
		ReturnType: func(args []row.Type) (row.Type, error) {
			return row.TypeInt, nil
		},
		Fn: func(args []*row.Vector, pos []int32, out *row.Vector) error {
			for _, p := range pos {
				if args[0].Null(int(p)) {
					out.SetNull(int(p))
					continue
				}
				out.Ints[p] = args[0].Ints[p] * 2
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Query("SELECT double_it(age) AS d FROM users WHERE userid = 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows()[0][0].AsInt() != 114 {
		t.Errorf("scalar UDF: %v", res.Rows()[0])
	}
	// Duplicate registration rejected.
	if e.Registry().RegisterScalar(&ScalarUDF{Name: "double_it", ReturnType: func([]row.Type) (row.Type, error) { return row.TypeInt, nil }, Fn: func([]*row.Vector, []int32, *row.Vector) error { return nil }}) == nil {
		t.Error("duplicate scalar UDF accepted")
	}
}

func TestDuplicateOutputNamesDeduplicated(t *testing.T) {
	e := newTestEngine(t)
	loadPaperTables(t, e)
	res, err := e.Query("SELECT u.userid, c.userid FROM users u, carts c WHERE u.userid = c.userid")
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema.Cols[0].Name == res.Schema.Cols[1].Name {
		t.Errorf("duplicate output names: %s", res.Schema)
	}
}

func TestResultRegisterAndRequery(t *testing.T) {
	e := newTestEngine(t)
	loadPaperTables(t, e)
	res, err := e.Query("SELECT userid, age FROM users WHERE country = 'USA'")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterResult("usa2", res); err != nil {
		t.Fatal(err)
	}
	res2, err := e.Query("SELECT MAX(age) FROM usa2")
	if err != nil {
		t.Fatal(err)
	}
	if res2.Rows()[0][0].AsInt() != 57 {
		t.Errorf("requery: %v", res2.Rows()[0])
	}
}

func TestShowTablesAndDescribe(t *testing.T) {
	e := newTestEngine(t)
	loadPaperTables(t, e)
	res, err := e.Run("SHOW TABLES")
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]int64{}
	for _, r := range res.Rows() {
		names[r[0].AsString()] = r[1].AsInt()
	}
	if names["users"] != 5 || names["carts"] != 5 {
		t.Errorf("SHOW TABLES = %v", names)
	}
	// The listing is sorted. The catalog is a map, whose iteration order
	// changes from call to call, so five tables listed ten times leave an
	// unsorted Names no room to pass by luck.
	for _, name := range []string{"zeta", "alpha", "mid"} {
		if err := e.LoadTable(name, row.MustSchema(row.Column{Name: "id", Type: row.TypeInt}), nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		res, err := e.Run("SHOW TABLES")
		if err != nil {
			t.Fatal(err)
		}
		var listed []string
		for _, r := range res.Rows() {
			listed = append(listed, r[0].AsString())
		}
		if got, want := fmt.Sprint(listed), "[alpha carts mid users zeta]"; got != want {
			t.Fatalf("SHOW TABLES lists %s, want %s", got, want)
		}
	}
	res, err = e.Run("DESCRIBE users")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 4 {
		t.Errorf("DESCRIBE rows = %d", res.NumRows())
	}
	if got := res.Rows()[2]; got[0].AsString() != "gender" || got[1].AsString() != "VARCHAR" {
		t.Errorf("DESCRIBE row = %v", got)
	}
	if _, err := e.Run("DESCRIBE nosuch"); err == nil {
		t.Error("DESCRIBE of missing table accepted")
	}
}

func TestHaving(t *testing.T) {
	e := newTestEngine(t)
	loadPaperTables(t, e)
	res, err := e.Query(`SELECT country, COUNT(*) AS n FROM users
		GROUP BY country HAVING n >= 2 ORDER BY country`)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows()
	if len(rows) != 1 || rows[0][0].AsString() != "USA" || rows[0][1].AsInt() != 3 {
		t.Errorf("HAVING result = %v", rows)
	}
	// HAVING can also reference the default aggregate output name.
	res, err = e.Query(`SELECT country, COUNT(*) FROM users GROUP BY country HAVING count = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 2 {
		t.Errorf("HAVING count=1 rows = %d, want 2", res.NumRows())
	}
	if _, err := e.Query("SELECT userid FROM users HAVING userid > 1"); err == nil {
		t.Error("HAVING without aggregation accepted")
	}
}
