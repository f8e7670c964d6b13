package transform

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"sqlml/internal/row"
	"sqlml/internal/sqlengine"
)

func loadNumeric(t testing.TB, e *sqlengine.Engine, name string, values []float64) {
	t.Helper()
	schema := row.MustSchema(
		row.Column{Name: "id", Type: row.TypeInt},
		row.Column{Name: "x", Type: row.TypeFloat},
		row.Column{Name: "tag", Type: row.TypeString},
	)
	rows := make([]row.Row, len(values))
	for i, v := range values {
		rows[i] = row.Row{row.Int(int64(i)), row.Float(v), row.String_("t")}
	}
	if err := e.LoadTable(name, schema, rows); err != nil {
		t.Fatal(err)
	}
}

func TestScaleStatsMatchDirectComputation(t *testing.T) {
	e := newEngine(t)
	rng := rand.New(rand.NewSource(1))
	values := make([]float64, 500)
	sum, sumsq := 0.0, 0.0
	minV, maxV := math.Inf(1), math.Inf(-1)
	for i := range values {
		v := rng.NormFloat64()*3 + 10
		values[i] = v
		sum += v
		sumsq += v * v
		minV = math.Min(minV, v)
		maxV = math.Max(maxV, v)
	}
	loadNumeric(t, e, "nums", values)
	s := statsOf(t, e, "nums", "x")
	n := float64(len(values))
	wantMean := sum / n
	wantStd := math.Sqrt(sumsq/n - wantMean*wantMean)
	if s.Count != int64(len(values)) {
		t.Errorf("count = %d", s.Count)
	}
	if math.Abs(s.Mean-wantMean) > 1e-9 || math.Abs(s.Std-wantStd) > 1e-9 {
		t.Errorf("mean/std = %v/%v, want %v/%v", s.Mean, s.Std, wantMean, wantStd)
	}
	if s.Min != minV || s.Max != maxV {
		t.Errorf("min/max = %v/%v, want %v/%v", s.Min, s.Max, minV, maxV)
	}
}

func TestStandardizeProducesZeroMeanUnitVariance(t *testing.T) {
	e := newEngine(t)
	rng := rand.New(rand.NewSource(2))
	values := make([]float64, 400)
	for i := range values {
		values[i] = rng.NormFloat64()*7 - 3
	}
	loadNumeric(t, e, "nums", values)
	if n := statsOf(t, e, "nums", "x").Count; n != 400 {
		t.Errorf("stats count = %d", n)
	}
	res, err := scale(e, "nums", []string{"x"}, ScalingStandard)
	if err != nil {
		t.Fatal(err)
	}
	xIdx := res.Schema.ColIndex("x")
	sum, sumsq := 0.0, 0.0
	for _, r := range res.Rows() {
		v := r[xIdx].AsFloat()
		sum += v
		sumsq += v * v
	}
	n := float64(res.NumRows())
	if mean := sum / n; math.Abs(mean) > 1e-9 {
		t.Errorf("standardized mean = %v", mean)
	}
	if variance := sumsq / n; math.Abs(variance-1) > 1e-9 {
		t.Errorf("standardized variance = %v", variance)
	}
	// Untouched columns pass through.
	if res.Schema.ColIndex("tag") < 0 || res.Schema.ColIndex("id") < 0 {
		t.Error("non-scaled columns missing")
	}
}

func TestMinMaxScaleBounds(t *testing.T) {
	e := newEngine(t)
	values := []float64{5, 10, 15, 20, 25}
	loadNumeric(t, e, "nums", values)
	res, err := scale(e, "nums", []string{"x"}, ScalingMinMax)
	if err != nil {
		t.Fatal(err)
	}
	xIdx := res.Schema.ColIndex("x")
	seen0, seen1 := false, false
	for _, r := range res.Rows() {
		v := r[xIdx].AsFloat()
		if v < 0 || v > 1 {
			t.Errorf("scaled value %v outside [0,1]", v)
		}
		if v == 0 {
			seen0 = true
		}
		if v == 1 {
			seen1 = true
		}
	}
	if !seen0 || !seen1 {
		t.Error("min and max must map to 0 and 1")
	}
}

// TestScaleConstantColumn: a zero-spread column scales to +0.0 (never
// -0.0, which the %v fingerprints would see) and NULL stays NULL.
func TestScaleConstantColumn(t *testing.T) {
	e := newEngine(t)
	schema := row.MustSchema(row.Column{Name: "x", Type: row.TypeFloat})
	if err := e.LoadTable("nums", schema, []row.Row{
		{row.Float(-7)}, {row.NullOf(row.TypeFloat)}, {row.Float(-7)}, {row.Float(-7)},
	}); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []ScalingKind{ScalingStandard, ScalingMinMax} {
		res, err := scale(e, "nums", []string{"x"}, kind)
		if err != nil {
			t.Fatal(err)
		}
		nulls := 0
		for _, r := range res.Rows() {
			if r[0].Null {
				nulls++
				continue
			}
			if v := r[0].AsFloat(); v != 0 || math.Signbit(v) {
				t.Errorf("%s: constant column scales to %v, want +0", kind, v)
			}
		}
		if nulls != 1 {
			t.Errorf("%s: nulls after scaling = %d, want 1", kind, nulls)
		}
	}
}

func TestScalePreservesNulls(t *testing.T) {
	e := newEngine(t)
	schema := row.MustSchema(row.Column{Name: "x", Type: row.TypeFloat})
	if err := e.LoadTable("n", schema, []row.Row{
		{row.Float(1)}, {row.NullOf(row.TypeFloat)}, {row.Float(3)},
	}); err != nil {
		t.Fatal(err)
	}
	if n := statsOf(t, e, "n", "x").Count; n != 2 {
		t.Errorf("NULLs must not count toward stats: count = %d", n)
	}
	res, err := scale(e, "n", []string{"x"}, ScalingStandard)
	if err != nil {
		t.Fatal(err)
	}
	nulls := 0
	for _, r := range res.Rows() {
		if r[0].Null {
			nulls++
		}
	}
	if nulls != 1 {
		t.Errorf("nulls after scaling = %d, want 1", nulls)
	}
}

func TestScaleIntegerColumnsBecomeDouble(t *testing.T) {
	e := newEngine(t)
	schema := row.MustSchema(row.Column{Name: "age", Type: row.TypeInt})
	if err := e.LoadTable("ages", schema, []row.Row{{row.Int(20)}, {row.Int(40)}}); err != nil {
		t.Fatal(err)
	}
	res, err := scale(e, "ages", []string{"age"}, ScalingMinMax)
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema.Cols[0].Type != row.TypeFloat {
		t.Errorf("scaled BIGINT column should become DOUBLE, got %s", res.Schema.Cols[0].Type)
	}
}

func TestScaleErrors(t *testing.T) {
	e := newEngine(t)
	loadFigure1(t, e)
	for _, cols := range [][]string{{"gender"}, {"nosuch"}, nil} {
		if _, err := scale(e, "t", cols, ScalingStandard); err == nil {
			t.Errorf("scaling %v accepted", cols)
		}
	}
	// A column with no non-NULL value has no statistics; the error names it.
	schema := row.MustSchema(row.Column{Name: "x", Type: row.TypeFloat}, row.Column{Name: "empty", Type: row.TypeInt})
	if err := e.LoadTable("n", schema, []row.Row{
		{row.Float(1), row.NullOf(row.TypeInt)}, {row.Float(2), row.NullOf(row.TypeInt)},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := scale(e, "n", []string{"x", "empty"}, ScalingMinMax); err == nil || !strings.Contains(err.Error(), `"empty"`) {
		t.Errorf("all-NULL column: err = %v, want one naming \"empty\"", err)
	}
	// Squares of ±1e200 overflow the sum of squares to +Inf: the standard
	// deviation has no SQL literal, so standardizing fails and names the
	// column, while min-max (finite bounds) still scales.
	loadNumeric(t, e, "huge", []float64{1e200, -1e200})
	if _, err := scale(e, "huge", []string{"x"}, ScalingStandard); err == nil || !strings.Contains(err.Error(), `"x"`) {
		t.Errorf("non-finite std: err = %v, want one naming \"x\"", err)
	}
	if _, err := scale(e, "huge", []string{"x"}, ScalingMinMax); err != nil {
		t.Errorf("min-max over finite bounds: %v", err)
	}
}

// statsOf runs the statistics pass over one column of a catalog table.
func statsOf(t testing.TB, e *sqlengine.Engine, table, col string) ColumnStats {
	t.Helper()
	tab, err := e.Catalog().Get(table)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := scaleStats(e, tab.Schema, table, []string{col})
	if err != nil {
		t.Fatal(err)
	}
	return stats[col]
}
