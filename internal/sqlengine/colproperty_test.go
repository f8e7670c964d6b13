package sqlengine

import (
	"math/rand"
	"testing"

	"sqlml/internal/cluster"
	"sqlml/internal/row"
)

// This file holds the query corpus and the random tables the property
// suites share (reference_test.go, parallel_test.go,
// external_scan_test.go). The tables are heavy on NULLs, and the queries
// are chosen to drive the kernels through their edge cases: three-valued
// comparisons, short-circuit AND/OR at narrowed positions, division
// guarded by the left conjunct, CASE arms, IN lists with NULL needles, and
// filters that leave batches empty or fully selected (the selection-vector
// extremes).

// nullableTablesCfg loads one fact table t (with ~25% NULLs in every
// column) and one small join table u into an engine built with cfg, whose
// topology fields are filled in here.
func nullableTablesCfg(t testing.TB, rng *rand.Rand, workers, nl, nr int, cfg Config) *Engine {
	t.Helper()
	topo := cluster.NewTopology(workers + 1)
	ids := make([]int, workers)
	for i := range ids {
		ids[i] = i + 1
	}
	cfg.HeadNodeID = 0
	cfg.WorkerNodeIDs = ids
	e, err := New(topo, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cats := []string{"a", "b", "c", "dd", "é"}
	maybeNull := func(v row.Value, typ row.Type) row.Value {
		if rng.Intn(4) == 0 {
			return row.NullOf(typ)
		}
		return v
	}
	var left []row.Row
	for i := 0; i < nl; i++ {
		left = append(left, row.Row{
			maybeNull(row.Int(int64(rng.Intn(8))), row.TypeInt),
			maybeNull(row.Int(int64(rng.Intn(100)-50)), row.TypeInt),
			maybeNull(row.Float(rng.Float64()*100-50), row.TypeFloat),
			maybeNull(row.String_(cats[rng.Intn(len(cats))]), row.TypeString),
		})
	}
	var right []row.Row
	for i := 0; i < nr; i++ {
		right = append(right, row.Row{
			maybeNull(row.Int(int64(rng.Intn(8))), row.TypeInt),
			maybeNull(row.Float(rng.Float64()*10), row.TypeFloat),
		})
	}
	lschema := row.MustSchema(
		row.Column{Name: "k", Type: row.TypeInt},
		row.Column{Name: "v", Type: row.TypeInt},
		row.Column{Name: "f", Type: row.TypeFloat},
		row.Column{Name: "cat", Type: row.TypeString},
	)
	rschema := row.MustSchema(
		row.Column{Name: "k", Type: row.TypeInt},
		row.Column{Name: "w", Type: row.TypeFloat},
	)
	if err := e.LoadTable("t", lschema, left); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadTable("u", rschema, right); err != nil {
		t.Fatal(err)
	}
	return e
}

// columnarOracleQueries drives the kernels; parallelOracleQueries
// (parallel_test.go) adds the partial/merge-sensitive shapes.
var columnarOracleQueries = []string{
	// Selection-vector extremes: everything filtered, nothing filtered.
	"SELECT v FROM t WHERE v < -10000",
	"SELECT v, cat FROM t WHERE v IS NULL OR v IS NOT NULL",
	// Short-circuit AND: the division must only run where v <> 0.
	"SELECT k FROM t WHERE v <> 0 AND 100 / v > 3",
	// OR with NULL operands, NOT, IS NULL.
	"SELECT v FROM t WHERE NOT (f < 0.0) OR v IS NULL",
	// Mixed-type comparison and arithmetic with NULL propagation.
	"SELECT v + 1, f * 2.0, v - f FROM t WHERE f > v",
	// IN over strings, NOT IN with possible NULL needle.
	"SELECT cat FROM t WHERE cat IN ('a', 'dd')",
	"SELECT v FROM t WHERE v NOT IN (1, 2, 3)",
	// CASE arms evaluated progressively at narrowed positions.
	"SELECT CASE WHEN v > 25 THEN v * 10 WHEN v > 0 THEN v ELSE 0 - 1 END FROM t",
	"SELECT CASE WHEN v IS NULL THEN 'none' WHEN cat = 'a' THEN 'hit' ELSE cat END FROM t",
	// Projection over a filtered batch (kernels see the selection).
	"SELECT v * v, f / 2.0 FROM t WHERE k >= 4",
	// Join with NULL keys on both sides (never match).
	"SELECT t.v, u.w FROM t, u WHERE t.k = u.k",
	"SELECT t.cat, u.w FROM t, u WHERE t.k = u.k AND t.v > 0",
	// Grouped aggregates over every accumulator, NULL-skipping.
	"SELECT cat, COUNT(*), SUM(v), MIN(f), MAX(v) FROM t GROUP BY cat",
	"SELECT k, AVG(f), COUNT(*) FROM t WHERE v IS NOT NULL GROUP BY k",
	// Global aggregate (empty grouping key) incl. the zero-row case.
	"SELECT COUNT(*), SUM(v) FROM t WHERE v < -10000",
	"SELECT MIN(v), MAX(f) FROM t",
	// Sorts keyed by computed expressions.
	"SELECT v FROM t WHERE v IS NOT NULL ORDER BY v DESC LIMIT 11",
	"SELECT k, f FROM t WHERE f IS NOT NULL AND k IS NOT NULL ORDER BY k, f",
	// Every built-in function over the NULL-heavy columns, its kernel
	// writing only at the listed positions.
	"SELECT UPPER(cat), LOWER(UPPER(cat)), LENGTH(cat), TRIM(CONCAT(' ', cat, ' ')) FROM t",
	"SELECT SUBSTR(cat, 1, 1), SUBSTR(cat, k, 2), CONCAT(cat, v, f) FROM t WHERE v > -20",
	"SELECT ABS(v), ABS(f), ROUND(f), FLOOR(f), CEIL(v) FROM t",
	"SELECT COALESCE(v, f), COALESCE(cat, 'none'), COALESCE(v, k, 0), COALESCE(k, 2.5) FROM t",
	"SELECT LEAST(v, f), GREATEST(k, f), LEAST(k, 3) FROM t WHERE v IS NOT NULL OR f IS NULL",
	// LN and SQRT fail on their left conjunct's rejects, so they must run
	// only where it held.
	"SELECT k FROM t WHERE f > 0.0 AND LN(f) > 1.0",
	"SELECT SQRT(v), LN(f) FROM t WHERE v >= 0 AND f > 0.0",
	// A VARCHAR CASE under a selection, one arm a function, no ELSE.
	"SELECT CASE WHEN f > 0.0 THEN UPPER(cat) WHEN v > 0 THEN SUBSTR(cat, 2, 5) END FROM t WHERE k > 1",
	// Functions as grouping, join and sort keys.
	"SELECT UPPER(cat), COUNT(*), SUM(ABS(v)) FROM t GROUP BY UPPER(cat)",
	"SELECT t.cat, u.w FROM t, u WHERE COALESCE(t.k, 0) = u.k",
	"SELECT cat, LENGTH(cat) FROM t WHERE cat IS NOT NULL ORDER BY LENGTH(cat) DESC, cat",
}

// oracleCorpus is every corpus query, kernel shapes first.
func oracleCorpus() []string {
	return append(append([]string(nil), columnarOracleQueries...), parallelOracleQueries...)
}

// runOracle executes sql and flattens the result rows to strings.
func runOracle(e *Engine, sql string) ([]string, error) {
	res, err := e.Query(sql)
	if err != nil {
		return nil, err
	}
	return rowStrings(res.Rows()), nil
}

func rowStrings(rows []row.Row) []string {
	var out []string
	for _, r := range rows {
		out = append(out, r.String())
	}
	return out
}
