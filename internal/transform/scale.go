package transform

import (
	"fmt"
	"math"
	"strings"

	"sqlml/internal/row"
	"sqlml/internal/sqlengine"
)

// Feature scaling is the other transformation family ML pipelines need
// beyond categorical encodings. Unlike recode phase 1 it needs no UDF:
// both passes are plain SQL the engine plans and runs in parallel. The
// statistics pass is one global aggregate over every scale column, and
// the apply pass is one projection with the statistics as literals.

// ColumnStats holds one numeric column's global statistics.
type ColumnStats struct {
	Count int64
	Mean  float64
	Std   float64
	Min   float64
	Max   float64
}

// scale rewrites cols of a catalog table as DOUBLEs under the given
// scaling. The result is materialised.
func scale(e *sqlengine.Engine, table string, cols []string, kind ScalingKind) (*sqlengine.Result, error) {
	t, err := e.Catalog().Get(table)
	if err != nil {
		return nil, err
	}
	stats, err := scaleStats(e, t.Schema, table, cols)
	if err != nil {
		return nil, err
	}
	sql, err := scaleSQL(t.Schema, table, stats, kind)
	if err != nil {
		return nil, err
	}
	return e.Query(sql)
}

// scaleStats runs the statistics pass: one SELECT of COUNT, SUM, sum of
// squares, MIN and MAX per column, keyed by lower-cased column name. The
// "* 1.0" sums BIGINT columns as DOUBLE and keeps c*c from overflowing.
func scaleStats(e *sqlengine.Engine, schema row.Schema, table string, cols []string) (map[string]ColumnStats, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("transform: no columns listed")
	}
	items := make([]string, 0, 5*len(cols))
	for _, c := range cols {
		col, ok := schema.Col(c)
		if !ok {
			return nil, fmt.Errorf("transform: unknown column %q", c)
		}
		if col.Type != row.TypeInt && col.Type != row.TypeFloat {
			return nil, fmt.Errorf("transform: column %q is %s; scaling applies to numeric columns", c, col.Type)
		}
		c = strings.ToLower(c)
		items = append(items, fmt.Sprintf("COUNT(%[1]s), SUM(%[1]s * 1.0), SUM(%[1]s * 1.0 * %[1]s), MIN(%[1]s), MAX(%[1]s)", c))
	}
	res, err := e.Query("SELECT " + strings.Join(items, ", ") + " FROM " + table)
	if err != nil {
		return nil, err
	}
	r := res.Rows()[0]
	stats := make(map[string]ColumnStats, len(cols))
	for i, c := range cols {
		v := r[5*i : 5*i+5]
		n := v[0].AsInt()
		if n == 0 {
			return nil, fmt.Errorf("transform: scale column %q has no non-NULL value", c)
		}
		mean := v[1].AsFloat() / float64(n)
		variance := v[2].AsFloat()/float64(n) - mean*mean
		if variance < 0 {
			variance = 0 // numeric noise
		}
		stats[strings.ToLower(c)] = ColumnStats{
			Count: n, Mean: mean, Std: math.Sqrt(variance),
			Min: v[3].AsFloat(), Max: v[4].AsFloat(),
		}
	}
	return stats, nil
}

// scaleSQL renders the apply pass: one projection in schema order where a
// scaled column c becomes (c - offset) / divisor AS c and every other
// column passes through. A constant column (zero divisor) scales to +0.0,
// and NULL stays NULL. Non-finite statistics are an error: the lexer has
// no literal for NaN or Inf.
func scaleSQL(schema row.Schema, table string, stats map[string]ColumnStats, kind ScalingKind) (string, error) {
	lit := func(f float64) string { return "(" + (&sqlengine.Lit{V: row.Float(f)}).String() + ")" }
	selects := make([]string, len(schema.Cols))
	for i, col := range schema.Cols {
		name := strings.ToLower(col.Name)
		s, ok := stats[name]
		if !ok {
			selects[i] = name
			continue
		}
		offset, divisor := s.Mean, s.Std
		if kind == ScalingMinMax {
			offset, divisor = s.Min, s.Max-s.Min
		}
		if math.IsInf(offset, 0) || math.IsNaN(offset) || math.IsInf(divisor, 0) || math.IsNaN(divisor) {
			return "", fmt.Errorf("transform: scale column %q has non-finite statistics", col.Name)
		}
		if divisor == 0 {
			selects[i] = fmt.Sprintf("CASE WHEN %[1]s IS NOT NULL THEN 0.0 END AS %[1]s", name)
			continue
		}
		selects[i] = fmt.Sprintf("(%[1]s - %[2]s) / %[3]s AS %[1]s", name, lit(offset), lit(divisor))
	}
	return "SELECT " + strings.Join(selects, ", ") + " FROM " + table, nil
}
