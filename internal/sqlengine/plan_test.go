package sqlengine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"sqlml/internal/cluster"
	"sqlml/internal/dfs"
	"sqlml/internal/row"
)

// planString renders a plan tree one node per line, each input indented
// under its node; a join lists its probe side, then its build side.
func planString(root *planNode) string {
	var b strings.Builder
	var walk func(n *planNode, depth int)
	walk = func(n *planNode, depth int) {
		fmt.Fprintf(&b, "%s%s\n", strings.Repeat("  ", depth), nodeLine(n))
		for _, c := range []*planNode{n.in, n.right} {
			if c != nil {
				walk(c, depth+1)
			}
		}
	}
	walk(root, 0)
	return b.String()
}

func nodeLine(n *planNode) string {
	list := func(exprs []Expr) string {
		s := make([]string, len(exprs))
		for i, ex := range exprs {
			s[i] = ex.String()
		}
		return strings.Join(s, ", ")
	}
	switch n.kind {
	case nodeScan:
		return "scan " + n.table.Name
	case nodeTableFunc:
		return fmt.Sprintf("table %s %v", n.udf.Name, n.args)
	case nodeFilter:
		return "filter " + list(n.exprs)
	case nodeHaving:
		return "having " + list(n.exprs)
	case nodeJoin:
		keys := []string{"cartesian"}
		if len(n.exprs) > 0 {
			keys = make([]string, len(n.exprs))
			for i := range n.exprs {
				keys[i] = n.exprs[i].String() + " = " + n.rightExprs[i].String()
			}
		}
		return "join " + strings.Join(keys, ", ") + " keep " + keptColumns(n)
	case nodeProject:
		return "project " + list(n.exprs)
	case nodeAggregate:
		items := make([]Expr, len(n.cols))
		for i, c := range n.cols {
			if c.keyIdx >= 0 {
				items[i] = n.exprs[c.keyIdx]
			} else {
				items[i] = n.aggs[c.aggIdx].call
			}
		}
		if len(n.exprs) == 0 {
			return "aggregate " + list(items)
		}
		return "aggregate " + list(items) + " by " + list(n.exprs)
	case nodeOrder:
		keys := make([]string, len(n.exprs))
		for i, ex := range n.exprs {
			keys[i] = ex.String()
			if n.specs[i].desc {
				keys[i] += " DESC"
			}
		}
		return "order " + strings.Join(keys, ", ")
	case nodeLimit:
		return fmt.Sprintf("limit %d", n.limit)
	}
	return fmt.Sprintf("kind %d", n.kind)
}

// keptColumns lists the columns a join keeps, by binding: the probe
// side's, then "|", then the build side's; "-" stands for none.
func keptColumns(n *planNode) string {
	var kept [2][]string
	last := len(n.sc.bindings) - 1
	for bi, bd := range n.sc.bindings {
		side := 0
		if bi == last {
			side = 1
		}
		for _, col := range bd.schema.Cols {
			kept[side] = append(kept[side], bd.name+"."+col.Name)
		}
	}
	for side := range kept {
		if len(kept[side]) == 0 {
			kept[side] = []string{"-"}
		}
	}
	return strings.Join(kept[0], ", ") + " | " + strings.Join(kept[1], ", ")
}

// TestPlanGolden pins the plan of every oracle corpus query: where each
// WHERE conjunct lands (on its source, as a join key, or above the
// joins), what each node computes, and the node order.
func TestPlanGolden(t *testing.T) {
	e := nullableTablesCfg(t, rand.New(rand.NewSource(1)), 2, 0, 0, Config{})
	// The paper pipeline's tables: its two sources, the preparation
	// query's output and the recode map.
	for name, cols := range map[string][]row.Column{
		"users":     {{Name: "userid", Type: row.TypeInt}, {Name: "age", Type: row.TypeInt}, {Name: "gender", Type: row.TypeString}, {Name: "country", Type: row.TypeString}},
		"carts":     {{Name: "cartid", Type: row.TypeInt}, {Name: "userid", Type: row.TypeInt}, {Name: "amount", Type: row.TypeFloat}, {Name: "nitems", Type: row.TypeInt}, {Name: "year", Type: row.TypeInt}, {Name: "abandoned", Type: row.TypeString}},
		"prep":      {{Name: "age", Type: row.TypeInt}, {Name: "gender", Type: row.TypeString}, {Name: "amount", Type: row.TypeFloat}, {Name: "abandoned", Type: row.TypeString}},
		"recodemap": {{Name: "colname", Type: row.TypeString}, {Name: "colval", Type: row.TypeString}, {Name: "recodeval", Type: row.TypeInt}},
	} {
		if err := e.CreateTable(name, row.MustSchema(cols...)); err != nil {
			t.Fatal(err)
		}
	}
	pinned := make(map[string]bool)
	for _, g := range planGolden {
		pinned[g.sql] = true
		sel, err := ParseSelect(g.sql)
		if err != nil {
			t.Fatal(err)
		}
		n, err := e.plan(sel)
		if err != nil {
			t.Fatalf("%s: %v", g.sql, err)
		}
		if got := planString(n); got != g.plan {
			t.Errorf("%s: plan\n%s\nwant\n%s", g.sql, got, g.plan)
		}
	}
	for _, sql := range oracleCorpus() {
		if !pinned[sql] {
			t.Errorf("corpus query has no golden plan: %s", sql)
		}
	}
}

// TestPlanErrorLeavesStreamingTable: a statement that fails to plan opens
// no source, so a streaming table it names is still there for the next
// query — whichever name fails to resolve, and also when a table
// function's OutSchema rejects a streaming table argument.
func TestPlanErrorLeavesStreamingTable(t *testing.T) {
	e := newTestEngine(t)
	loadPaperTables(t, e)
	err := e.Registry().RegisterTable(&TableUDF{
		Name:         "refuse_input",
		PerPartition: true,
		OutSchema: func(in row.Schema, args []row.Value) (row.Schema, error) {
			return row.Schema{}, errors.New("input refused")
		},
		Fn: func(ctx *UDFContext, in ColBatchSource, args []row.Value, emit func(*row.ColBatch) error) error {
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ sql, err string }{
		{"SELECT nosuch FROM s", `unknown column "nosuch"`},
		{"SELECT s.userid FROM s, carts WHERE s.userid = carts.nosuch", "carts.nosuch"},
		{"SELECT userid, COUNT(*) FROM s", "neither an aggregate nor in GROUP BY"},
		{"SELECT * FROM TABLE(refuse_input(s))", "input refused"},
	} {
		stream, err := e.QueryStream("SELECT userid FROM users")
		if err != nil {
			t.Fatal(err)
		}
		if err := e.RegisterResultStream("s", stream); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Query(c.sql); err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("%s: err = %v, want %q", c.sql, err, c.err)
		}
		res, err := e.Query("SELECT userid FROM s")
		if err != nil {
			t.Errorf("after %s: %v", c.sql, err)
		} else if n := res.NumRows(); n != 5 {
			t.Errorf("after %s: %d rows, want 5", c.sql, n)
		}
		if err := e.DropTable("s"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestExportErrorTearsDown: when one partition of an export fails, the
// export returns that partition's error and every partition pipeline is
// closed — those the cancelled pool never started draining included — so
// no UDF goroutine outlives the call.
func TestExportErrorTearsDown(t *testing.T) {
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism_%d", par), func(t *testing.T) {
			e := nullableTablesCfg(t, rand.New(rand.NewSource(5)), 4, 40, 10, Config{Parallelism: par})
			boom := errors.New("boom")
			err := e.Registry().RegisterTable(&TableUDF{
				Name:         "gen_first_fails",
				PerPartition: true,
				OutSchema:    genSchema,
				Fn: func(ctx *UDFContext, in ColBatchSource, args []row.Value, emit func(*row.ColBatch) error) error {
					if ctx.Partition == 0 {
						return boom
					}
					return generate(math.MaxInt, func(i int) int64 { return int64(i) }, nil, emit)
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			fsys := dfs.New(cluster.NewTopology(5), dfs.Config{BlockSize: 1 << 16, Replication: 1})
			baseline := runtime.NumGoroutine()
			res, err := e.QueryStream("SELECT v FROM TABLE(gen_first_fails(t))")
			if err != nil {
				t.Fatal(err)
			}
			if err := e.ExportToDFS(res, fsys, "/out"); !errors.Is(err, boom) {
				t.Errorf("export error = %v, want the failing partition's", err)
			}
			waitGoroutines(t, baseline, "failed export")
		})
	}
}

// planGolden is the plan of every oracleCorpus() query, then of queries
// that reach the placement rules the corpus does not: a key written
// build-side first, a constant conjunct, a key-less join, a residual
// conjunct over both sides, and a third source keyed on an expression
// over the first two; then the paper pipeline's preparation query and
// the recode SELECT transform.RecodeJoinSQL writes for it. Every join
// lists the columns it keeps, probe side | build side.
var planGolden = []struct{ sql, plan string }{
	{"SELECT v FROM t WHERE v < -10000", `project v
  filter (v < -10000)
    scan t
`},
	{"SELECT v, cat FROM t WHERE v IS NULL OR v IS NOT NULL", `project v, cat
  filter ((v IS NULL) OR (v IS NOT NULL))
    scan t
`},
	{"SELECT k FROM t WHERE v <> 0 AND 100 / v > 3", `project k
  filter ((v <> 0) AND ((100 / v) > 3))
    scan t
`},
	{"SELECT v FROM t WHERE NOT (f < 0.0) OR v IS NULL", `project v
  filter ((NOT (f < 0.0)) OR (v IS NULL))
    scan t
`},
	{"SELECT v + 1, f * 2.0, v - f FROM t WHERE f > v", `project (v + 1), (f * 2.0), (v - f)
  filter (f > v)
    scan t
`},
	{"SELECT cat FROM t WHERE cat IN ('a', 'dd')", `project cat
  filter (cat IN ('a', 'dd'))
    scan t
`},
	{"SELECT v FROM t WHERE v NOT IN (1, 2, 3)", `project v
  filter (v NOT IN (1, 2, 3))
    scan t
`},
	{"SELECT CASE WHEN v > 25 THEN v * 10 WHEN v > 0 THEN v ELSE 0 - 1 END FROM t", `project CASE WHEN (v > 25) THEN (v * 10) WHEN (v > 0) THEN v ELSE (0 - 1) END
  scan t
`},
	{"SELECT CASE WHEN v IS NULL THEN 'none' WHEN cat = 'a' THEN 'hit' ELSE cat END FROM t", `project CASE WHEN (v IS NULL) THEN 'none' WHEN (cat = 'a') THEN 'hit' ELSE cat END
  scan t
`},
	{"SELECT v * v, f / 2.0 FROM t WHERE k >= 4", `project (v * v), (f / 2.0)
  filter (k >= 4)
    scan t
`},
	{"SELECT t.v, u.w FROM t, u WHERE t.k = u.k", `project t.v, u.w
  join t.k = u.k keep t.v | u.w
    scan t
    scan u
`},
	{"SELECT t.cat, u.w FROM t, u WHERE t.k = u.k AND t.v > 0", `project t.cat, u.w
  join t.k = u.k keep t.cat | u.w
    filter (t.v > 0)
      scan t
    scan u
`},
	{"SELECT cat, COUNT(*), SUM(v), MIN(f), MAX(v) FROM t GROUP BY cat", `aggregate cat, COUNT(*), SUM(v), MIN(f), MAX(v) by cat
  scan t
`},
	{"SELECT k, AVG(f), COUNT(*) FROM t WHERE v IS NOT NULL GROUP BY k", `aggregate k, AVG(f), COUNT(*) by k
  filter (v IS NOT NULL)
    scan t
`},
	{"SELECT COUNT(*), SUM(v) FROM t WHERE v < -10000", `aggregate COUNT(*), SUM(v)
  filter (v < -10000)
    scan t
`},
	{"SELECT MIN(v), MAX(f) FROM t", `aggregate MIN(v), MAX(f)
  scan t
`},
	{"SELECT v FROM t WHERE v IS NOT NULL ORDER BY v DESC LIMIT 11", `limit 11
  order v DESC
    project v
      filter (v IS NOT NULL)
        scan t
`},
	{"SELECT k, f FROM t WHERE f IS NOT NULL AND k IS NOT NULL ORDER BY k, f", `order k, f
  project k, f
    filter ((f IS NOT NULL) AND (k IS NOT NULL))
      scan t
`},
	{"SELECT UPPER(cat), LOWER(UPPER(cat)), LENGTH(cat), TRIM(CONCAT(' ', cat, ' ')) FROM t", `project UPPER(cat), LOWER(UPPER(cat)), LENGTH(cat), TRIM(CONCAT(' ', cat, ' '))
  scan t
`},
	{"SELECT SUBSTR(cat, 1, 1), SUBSTR(cat, k, 2), CONCAT(cat, v, f) FROM t WHERE v > -20", `project SUBSTR(cat, 1, 1), SUBSTR(cat, k, 2), CONCAT(cat, v, f)
  filter (v > -20)
    scan t
`},
	{"SELECT ABS(v), ABS(f), ROUND(f), FLOOR(f), CEIL(v) FROM t", `project ABS(v), ABS(f), ROUND(f), FLOOR(f), CEIL(v)
  scan t
`},
	{"SELECT COALESCE(v, f), COALESCE(cat, 'none'), COALESCE(v, k, 0), COALESCE(k, 2.5) FROM t", `project COALESCE(v, f), COALESCE(cat, 'none'), COALESCE(v, k, 0), COALESCE(k, 2.5)
  scan t
`},
	{"SELECT LEAST(v, f), GREATEST(k, f), LEAST(k, 3) FROM t WHERE v IS NOT NULL OR f IS NULL", `project LEAST(v, f), GREATEST(k, f), LEAST(k, 3)
  filter ((v IS NOT NULL) OR (f IS NULL))
    scan t
`},
	{"SELECT k FROM t WHERE f > 0.0 AND LN(f) > 1.0", `project k
  filter ((f > 0.0) AND (LN(f) > 1.0))
    scan t
`},
	{"SELECT SQRT(v), LN(f) FROM t WHERE v >= 0 AND f > 0.0", `project SQRT(v), LN(f)
  filter ((v >= 0) AND (f > 0.0))
    scan t
`},
	{"SELECT CASE WHEN f > 0.0 THEN UPPER(cat) WHEN v > 0 THEN SUBSTR(cat, 2, 5) END FROM t WHERE k > 1", `project CASE WHEN (f > 0.0) THEN UPPER(cat) WHEN (v > 0) THEN SUBSTR(cat, 2, 5) END
  filter (k > 1)
    scan t
`},
	{"SELECT UPPER(cat), COUNT(*), SUM(ABS(v)) FROM t GROUP BY UPPER(cat)", `aggregate UPPER(cat), COUNT(*), SUM(ABS(v)) by UPPER(cat)
  scan t
`},
	{"SELECT t.cat, u.w FROM t, u WHERE COALESCE(t.k, 0) = u.k", `project t.cat, u.w
  join COALESCE(t.k, 0) = u.k keep t.cat | u.w
    scan t
    scan u
`},
	{"SELECT cat, LENGTH(cat) FROM t WHERE cat IS NOT NULL ORDER BY LENGTH(cat) DESC, cat", `order LENGTH(cat) DESC, cat
  project cat, LENGTH(cat)
    filter (cat IS NOT NULL)
      scan t
`},
	{"SELECT cat, SUM(f), AVG(f) FROM t GROUP BY cat", `aggregate cat, SUM(f), AVG(f) by cat
  scan t
`},
	{"SELECT k, SUM(v), COUNT(*) AS n FROM t GROUP BY k HAVING n > 1", `having (n > 1)
  aggregate k, SUM(v), COUNT(*) by k
    scan t
`},
	{"SELECT SUM(f), MIN(v), MAX(f) FROM t", `aggregate SUM(f), MIN(v), MAX(f)
  scan t
`},
	{"SELECT DISTINCT cat, k FROM t", `aggregate cat, k by cat, k
  project cat, k
    scan t
`},
	{"SELECT DISTINCT v FROM t ORDER BY v", `order v
  aggregate v by v
    project v
      scan t
`},
	{"SELECT t.v, u.w FROM t, u WHERE t.k = u.k", `project t.v, u.w
  join t.k = u.k keep t.v | u.w
    scan t
    scan u
`},
	{"SELECT t.cat, u.w FROM t, u WHERE t.k = u.k AND t.v > 0 ORDER BY w DESC", `order w DESC
  project t.cat, u.w
    join t.k = u.k keep t.cat | u.w
      filter (t.v > 0)
        scan t
      scan u
`},
	{"SELECT cat, v FROM t WHERE v IS NOT NULL ORDER BY cat", `order cat
  project cat, v
    filter (v IS NOT NULL)
      scan t
`},
	{"SELECT k, v FROM t ORDER BY k LIMIT 13", `limit 13
  order k
    project k, v
      scan t
`},
	{"SELECT v + 1, f * 2.0 FROM t WHERE f > v", `project (v + 1), (f * 2.0)
  filter (f > v)
    scan t
`},
	{"SELECT v FROM t LIMIT 7", `limit 7
  project v
    scan t
`},
	{"SELECT k, SUM(v) AS s FROM t GROUP BY k HAVING s > 10", `having (s > 10)
  aggregate k, SUM(v) by k
    scan t
`},
	{"SELECT cat, COUNT(*) AS n, MIN(f) AS lo FROM t GROUP BY cat HAVING cat <> 'b' AND n > 1", `having ((cat <> 'b') AND (n > 1))
  aggregate cat, COUNT(*), MIN(f) by cat
    scan t
`},
	{"SELECT COUNT(*) AS n, MIN(f) AS lo, MAX(v) AS hi FROM t HAVING n > 5", `having (n > 5)
  aggregate COUNT(*), MIN(f), MAX(v)
    scan t
`},
	{"SELECT k, SUM(v) AS s FROM t GROUP BY k ORDER BY s DESC, k LIMIT 4", `limit 4
  order s DESC, k
    aggregate k, SUM(v) by k
      scan t
`},
	{"SELECT DISTINCT cat, v FROM t ORDER BY cat, v DESC LIMIT 5", `limit 5
  order cat, v DESC
    aggregate cat, v by cat, v
      project cat, v
        scan t
`},
	{"SELECT k, f FROM t ORDER BY f DESC", `order f DESC
  project k, f
    scan t
`},
	{"SELECT t.v FROM t, u WHERE u.k = t.k AND 1 = 1", `project t.v
  join t.k = u.k keep t.v | -
    filter (1 = 1)
      scan t
    scan u
`},
	{"SELECT * FROM t, u", `project t.k, t.v, t.f, t.cat, u.k, u.w
  join cartesian keep t.k, t.v, t.f, t.cat | u.k, u.w
    scan t
    scan u
`},
	{"SELECT t.v FROM t, u WHERE t.k = u.k AND t.v > u.w", `project t.v
  filter (t.v > u.w)
    join t.k = u.k keep t.v | u.w
      scan t
      scan u
`},
	{"SELECT a.v, c.cat FROM t a, u b, t c WHERE a.k = b.k AND c.k = a.k + b.k AND c.v IS NULL", `project a.v, c.cat
  join (a.k + b.k) = c.k keep a.v | c.cat
    join a.k = b.k keep a.k, a.v | b.k
      scan t
      scan u
    filter (c.v IS NULL)
      scan t
`},
	{"SELECT U.age, U.gender, C.amount, C.abandoned FROM carts C, users U WHERE C.userid=U.userid AND U.country='USA'", `project u.age, u.gender, c.amount, c.abandoned
  join c.userid = u.userid keep c.amount, c.abandoned | u.age, u.gender
    scan carts
    filter (u.country = 'USA')
      scan users
`},
	{"SELECT __t.age AS age, CASE WHEN __m1.recodeval = 1 THEN 1 ELSE 0 END AS gender_1, CASE WHEN __m1.recodeval = 2 THEN 1 ELSE 0 END AS gender_2, __t.amount AS amount, __m2.recodeval AS abandoned FROM prep AS __t, recodemap AS __m1, recodemap AS __m2 WHERE __m1.colname = 'gender' AND __t.gender = __m1.colval AND __m2.colname = 'abandoned' AND __t.abandoned = __m2.colval", `project __t.age, CASE WHEN (__m1.recodeval = 1) THEN 1 ELSE 0 END, CASE WHEN (__m1.recodeval = 2) THEN 1 ELSE 0 END, __t.amount, __m2.recodeval
  join __t.abandoned = __m2.colval keep __t.age, __t.amount, __m1.recodeval | __m2.recodeval
    join __t.gender = __m1.colval keep __t.age, __t.amount, __t.abandoned | __m1.recodeval
      scan prep
      filter (__m1.colname = 'gender')
        scan recodemap
    filter (__m2.colname = 'abandoned')
      scan recodemap
`},
}
