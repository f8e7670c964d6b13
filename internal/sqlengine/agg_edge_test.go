package sqlengine

import (
	"fmt"
	"math"
	"testing"

	"sqlml/internal/cluster"
	"sqlml/internal/row"
)

// Aggregate edge cases, pinned with their expected values. Every table is
// loaded partition by partition, so each group's rows span several
// partitions and the head merge, not only the partial, decides the
// result. Floats compare bit for bit (the sign of a zero included); NaN
// compares equal to NaN.

var (
	aggNaN    = row.Float(math.NaN())
	aggNegZ   = row.Float(math.Copysign(0, -1))
	aggPosZ   = row.Float(0)
	aggNullI  = row.NullOf(row.TypeInt)
	aggNullF  = row.NullOf(row.TypeFloat)
	aggNullS  = row.NullOf(row.TypeString)
	aggNullB  = row.NullOf(row.TypeBool)
	aggMinI64 = row.Int(math.MinInt64)
	aggMaxI64 = row.Int(math.MaxInt64)
)

// aggEdgeEngine is a four-worker engine at the given Parallelism.
func aggEdgeEngine(t *testing.T, par int) *Engine {
	t.Helper()
	e, err := New(cluster.NewTopology(5), nil, Config{HeadNodeID: 0, WorkerNodeIDs: []int{1, 2, 3, 4}, Parallelism: par})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// loadAggEdge loads the edge table: g names the group, and each group
// holds one edge of the aggregates' semantics.
func loadAggEdge(t *testing.T, e *Engine) {
	t.Helper()
	s := row.MustSchema(
		row.Column{Name: "g", Type: row.TypeString},
		row.Column{Name: "i", Type: row.TypeInt},
		row.Column{Name: "d", Type: row.TypeFloat},
		row.Column{Name: "s", Type: row.TypeString},
		row.Column{Name: "b", Type: row.TypeBool},
	)
	r := func(g string, i, d, s, b row.Value) row.Row { return row.Row{row.String_(g), i, d, s, b} }
	I, F, S, B := row.Int, row.Float, row.String_, row.Bool
	parts := [][]row.Row{
		{ // partition 0
			r("nan", I(3), aggNaN, S("m"), B(true)),
			r("nan", I(1), F(1.5), S("z"), B(false)),
			r("pz", I(0), aggPosZ, S(""), B(false)),
			r("pz", I(0), aggNegZ, S("b"), B(false)),
			r("ext", aggMaxI64, F(1), S("x"), B(true)),
			r("ext", aggMinI64, F(2), S("xx"), B(true)),
			r("nul", aggNullI, aggNullF, aggNullS, aggNullB),
			r("late", I(5), F(5), S("q"), B(true)),
		},
		{ // partition 1
			r("nan", I(2), F(-2), S("a"), aggNullB),
			r("zp", I(-1), aggNegZ, S("c"), B(true)),
			r("zp", I(-2), aggPosZ, S("c"), B(false)),
			r("nul", aggNullI, aggNullF, aggNullS, aggNullB),
			r("late", I(6), aggNaN, S("p"), B(false)),
			{aggNullS, I(7), F(2.5), S("k"), B(false)},
		},
		{ // partition 2
			r("nan", aggNullI, aggNaN, aggNullS, B(true)),
			r("pz", I(0), aggNegZ, S("a"), B(true)),
			r("ext", I(0), F(3), S("w"), B(false)),
			r("nul", aggNullI, aggNullF, aggNullS, aggNullB),
		},
		{ // partition 3
			r("zp", I(-3), aggPosZ, S("d"), B(true)),
			r("ext", I(0), F(-1), S("y"), B(false)),
			r("nul", aggNullI, aggNullF, aggNullS, aggNullB),
			r("late", I(7), F(4), S("r"), aggNullB),
			{aggNullS, I(1), aggNullF, S("j"), B(true)},
		},
	}
	if err := e.LoadPartitionedTable("edge", s, parts); err != nil {
		t.Fatal(err)
	}
}

type aggEdgeCase struct {
	sql  string
	want []row.Row
	ref  bool // referenceQuery must return want as well
}

func aggEdgeCases() []aggEdgeCase {
	I, F, S, B := row.Int, row.Float, row.String_, row.Bool
	k := func(g string) row.Value { return row.String_(g) }
	return []aggEdgeCase{
		{
			sql: "SELECT g, COUNT(*), COUNT(i), COUNT(d), COUNT(s), COUNT(b) FROM edge GROUP BY g",
			want: []row.Row{
				{k("nan"), I(4), I(3), I(4), I(3), I(3)},
				{k("pz"), I(3), I(3), I(3), I(3), I(3)},
				{k("ext"), I(4), I(4), I(4), I(4), I(4)},
				{k("nul"), I(4), I(0), I(0), I(0), I(0)},
				{k("late"), I(3), I(3), I(3), I(3), I(2)},
				{k("zp"), I(3), I(3), I(3), I(3), I(3)},
				{aggNullS, I(2), I(2), I(1), I(2), I(2)},
			},
			ref: true,
		},
		{
			sql: "SELECT g, SUM(i), AVG(i), SUM(d), AVG(d) FROM edge GROUP BY g",
			want: []row.Row{
				{k("nan"), I(6), F(2), aggNaN, aggNaN},
				{k("pz"), I(0), F(0), aggPosZ, aggPosZ},
				// MaxInt64 + MinInt64 + 0 + 0: the partial and the merge
				// both stay in range.
				{k("ext"), I(-1), F(-0.25), F(5), F(1.25)},
				{k("nul"), aggNullI, aggNullF, aggNullF, aggNullF},
				{k("late"), I(18), F(6), aggNaN, aggNaN},
				{k("zp"), I(-6), F(-2), aggPosZ, aggPosZ},
				{aggNullS, I(8), F(4), F(2.5), F(2.5)},
			},
			ref: true,
		},
		{
			// MIN and MAX under the one DOUBLE rule: NaN above every number,
			// -0 equal to +0 and the first seen kept, within a partition and
			// across the merge.
			sql: "SELECT g, MIN(i), MAX(i), MIN(d), MAX(d), MIN(s), MAX(s), MIN(b), MAX(b) FROM edge GROUP BY g",
			want: []row.Row{
				{k("nan"), I(1), I(3), F(-2), aggNaN, S("a"), S("z"), B(false), B(true)},
				{k("pz"), I(0), I(0), aggPosZ, aggPosZ, S(""), S("b"), B(false), B(true)},
				{k("ext"), aggMinI64, aggMaxI64, F(-1), F(3), S("w"), S("y"), B(false), B(true)},
				{k("nul"), aggNullI, aggNullI, aggNullF, aggNullF, aggNullS, aggNullS, aggNullB, aggNullB},
				{k("late"), I(5), I(7), F(4), aggNaN, S("p"), S("r"), B(false), B(true)},
				{k("zp"), I(-3), I(-1), aggNegZ, aggNegZ, S("c"), S("d"), B(false), B(true)},
				{aggNullS, I(1), I(7), F(2.5), F(2.5), S("j"), S("k"), B(false), B(true)},
			},
			ref: true,
		},
		{
			sql:  "SELECT COUNT(*), COUNT(d), SUM(i), MIN(d), MAX(d), MIN(s), MAX(s), MIN(b), MAX(b) FROM edge WHERE g <> 'nan' AND g <> 'late'",
			want: []row.Row{{I(14), I(10), I(-7), F(-1), F(3), S(""), S("y"), B(false), B(true)}},
			ref:  true,
		},
		{
			// A global aggregate over zero rows yields one row.
			sql:  "SELECT COUNT(*), COUNT(i), SUM(i), AVG(i), SUM(d), AVG(d), MIN(i), MAX(d), MIN(s), MAX(b) FROM edge WHERE g = 'none'",
			want: []row.Row{{I(0), I(0), aggNullI, aggNullF, aggNullF, aggNullF, aggNullI, aggNullF, aggNullS, aggNullB}},
			ref:  true,
		},
		{
			sql:  "SELECT g, COUNT(*) FROM edge WHERE g = 'none' GROUP BY g",
			want: nil,
			ref:  true,
		},
		{
			// A DOUBLE group key: -0 and +0 are one group, keyed by the
			// first seen. (The reference keys groups by text, so it keeps
			// -0 and +0 apart and does not apply.)
			sql:  "SELECT d, COUNT(*), MIN(i) FROM edge WHERE g = 'zp' OR g = 'pz' GROUP BY d",
			want: []row.Row{{aggPosZ, I(6), I(-3)}},
		},
		{
			sql:  "SELECT d, COUNT(*), MAX(s) FROM edge WHERE g = 'zp' GROUP BY d",
			want: []row.Row{{aggNegZ, I(3), S("d")}},
		},
		{
			// DISTINCT groups by every column: over zero rows it yields no
			// row, not the global aggregate's empty-key row.
			sql:  "SELECT DISTINCT g, i FROM edge WHERE g = 'none'",
			want: nil,
			ref:  true,
		},
		{
			// -0 (partition 1) and +0 (partitions 1 and 3) are one row,
			// the first seen. (The reference keeps them apart.)
			sql:  "SELECT DISTINCT d FROM edge WHERE g = 'zp'",
			want: []row.Row{{aggNegZ}},
		},
		{
			sql:  "SELECT DISTINCT i, d, s, b FROM edge WHERE g = 'nul'",
			want: []row.Row{{aggNullI, aggNullF, aggNullS, aggNullB}},
			ref:  true,
		},
		{
			sql:  "SELECT DISTINCT i, i FROM edge WHERE g = 'ext'",
			want: []row.Row{{aggMaxI64, aggMaxI64}, {aggMinI64, aggMinI64}, {I(0), I(0)}},
			ref:  true,
		},
		{
			sql:  "SELECT DISTINCT COUNT(*) FROM edge",
			want: []row.Row{{I(23)}},
			ref:  true,
		},
		{
			// First seen within a partition, partitions in order.
			sql: "SELECT DISTINCT g, b FROM edge",
			want: []row.Row{
				{k("nan"), B(true)}, {k("nan"), B(false)}, {k("pz"), B(false)}, {k("ext"), B(true)},
				{k("nul"), aggNullB}, {k("late"), B(true)},
				{k("nan"), aggNullB}, {k("zp"), B(true)}, {k("zp"), B(false)}, {k("late"), B(false)},
				{aggNullS, B(false)},
				{k("pz"), B(true)}, {k("ext"), B(false)},
				{k("late"), aggNullB}, {aggNullS, B(true)},
			},
			ref: true,
		},
	}
}

// aggSameCell is exact equality: kind, NULL-ness, and value, with floats
// compared by bits (NaN matches NaN).
func aggSameCell(a, b row.Value) bool {
	if a.Kind != b.Kind || a.Null != b.Null {
		return false
	}
	if a.Null {
		return true
	}
	if a.Kind == row.TypeFloat {
		x, y := a.AsFloat(), b.AsFloat()
		return (math.IsNaN(x) && math.IsNaN(y)) || math.Float64bits(x) == math.Float64bits(y)
	}
	return a.Equal(b)
}

func aggDiff(got, want []row.Row) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, want %d: %v", len(got), len(want), got)
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return fmt.Sprintf("row %d: %v, want %v", i, got[i], want[i])
		}
		for c := range got[i] {
			if !aggSameCell(got[i][c], want[i][c]) {
				g, w := got[i][c], want[i][c]
				return fmt.Sprintf("row %d column %d: %v (kind %s, signbit %t), want %v (kind %s, signbit %t)",
					i, c, g, g.Kind, g.Kind == row.TypeFloat && !g.Null && math.Signbit(g.AsFloat()),
					w, w.Kind, w.Kind == row.TypeFloat && !w.Null && math.Signbit(w.AsFloat()))
			}
		}
	}
	return ""
}

// TestAggregateEdgeCases: COUNT(*), COUNT(x), SUM, AVG, MIN and MAX over
// BIGINT, DOUBLE, VARCHAR and BOOLEAN, on groups holding NaN, +0 before
// -0 and -0 before +0, MinInt64/MaxInt64, and only NULLs, and DISTINCT,
// the same grouping with no aggregates; groups come out in first-seen
// order, partitions in order.
func TestAggregateEdgeCases(t *testing.T) {
	for _, par := range []int{1, 4} {
		e := aggEdgeEngine(t, par)
		loadAggEdge(t, e)
		for _, c := range aggEdgeCases() {
			res, err := e.Query(c.sql)
			if err != nil {
				t.Fatalf("P%d %s: %v", par, c.sql, err)
			}
			if d := aggDiff(res.Rows(), c.want); d != "" {
				t.Errorf("P%d %s: %s", par, c.sql, d)
			}
			if !c.ref {
				continue
			}
			ref, err := referenceQuery(e, c.sql)
			if err != nil {
				t.Fatalf("reference %s: %v", c.sql, err)
			}
			if d := aggDiff(ref, c.want); d != "" {
				t.Errorf("reference %s: %s", c.sql, d)
			}
		}
	}
}

// TestAggregateFloatSumPerPartition: a DOUBLE SUM adds within each
// partition, then merges the partials in partition order. Here that order
// gives 0 where one sequential pass over the rows gives 1, so the partial
// boundaries are pinned to the partitions, at any Parallelism.
func TestAggregateFloatSumPerPartition(t *testing.T) {
	s := row.MustSchema(row.Column{Name: "g", Type: row.TypeInt}, row.Column{Name: "d", Type: row.TypeFloat})
	g := row.Int(1)
	parts := [][]row.Row{
		{{g, row.Float(1)}, {g, row.Float(1e16)}},
		{{g, row.Float(-1e16)}, {g, row.Float(1)}},
		nil,
		nil,
	}
	for _, par := range []int{1, 4} {
		e := aggEdgeEngine(t, par)
		if err := e.LoadPartitionedTable("ford", s, parts); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			sql  string
			want []row.Row
		}{
			{"SELECT g, SUM(d), AVG(d) FROM ford GROUP BY g", []row.Row{{g, aggPosZ, aggPosZ}}},
			{"SELECT SUM(d) FROM ford", []row.Row{{aggPosZ}}},
		} {
			res, err := e.Query(c.sql)
			if err != nil {
				t.Fatalf("P%d %s: %v", par, c.sql, err)
			}
			if d := aggDiff(res.Rows(), c.want); d != "" {
				t.Errorf("P%d %s: %s", par, c.sql, d)
			}
		}
	}
}

// TestAggregateOverflowErrorChoice: when several groups and columns
// overflow BIGINT, the query fails with the first merged group's first
// overflowing column in output order — not with whichever overflow
// happened first in time. Here y's a overflows inside partition 0's
// partial, while x, the first group, overflows b only at the merge.
func TestAggregateOverflowErrorChoice(t *testing.T) {
	s := row.MustSchema(
		row.Column{Name: "g", Type: row.TypeString},
		row.Column{Name: "a", Type: row.TypeInt},
		row.Column{Name: "b", Type: row.TypeInt},
	)
	x, y := row.String_("x"), row.String_("y")
	parts := [][]row.Row{
		{{x, row.Int(1), aggMaxI64}, {y, aggMaxI64, row.Int(1)}, {y, aggMaxI64, row.Int(1)}},
		{{x, row.Int(1), aggMaxI64}},
		{{y, aggMinI64, row.Int(0)}},
		nil,
	}
	for _, par := range []int{1, 4} {
		e := aggEdgeEngine(t, par)
		if err := e.LoadPartitionedTable("ovf", s, parts); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct{ sql, want string }{
			{"SELECT g, AVG(a), SUM(b) FROM ovf GROUP BY g", "SUM"},
			{"SELECT g, SUM(a), AVG(b) FROM ovf GROUP BY g", "AVG"},
			{"SELECT g, SUM(b), AVG(b) FROM ovf GROUP BY g", "SUM"},
			{"SELECT g, AVG(b), SUM(b) FROM ovf GROUP BY g", "AVG"},
			{"SELECT g, AVG(a), COUNT(*) FROM ovf GROUP BY g", "AVG"},
			{"SELECT g, SUM(a) FROM ovf WHERE g = 'y' GROUP BY g", "SUM"},
			{"SELECT AVG(a), SUM(b) FROM ovf", "AVG"},
		} {
			want := "sql: " + c.want + " overflows BIGINT"
			if _, err := e.Query(c.sql); err == nil || err.Error() != want {
				t.Errorf("P%d %s: err = %v, want %q", par, c.sql, err, want)
			}
		}
		// The groups that stay in range still aggregate.
		res, err := e.Query("SELECT g, SUM(a), COUNT(b) FROM ovf WHERE g = 'x' GROUP BY g")
		if err != nil {
			t.Fatalf("P%d: %v", par, err)
		}
		if d := aggDiff(res.Rows(), []row.Row{{x, row.Int(2), row.Int(2)}}); d != "" {
			t.Errorf("P%d: %s", par, d)
		}
	}
}

// TestAggregateManyGroupsAcrossChunks: more groups than one chunk holds,
// each key in up to three partitions, so partial key chunks, the merge's
// re-insert and the output all cross chunk boundaries.
func TestAggregateManyGroupsAcrossChunks(t *testing.T) {
	const keys, span, step = 3500, 2000, 500
	s := row.MustSchema(
		row.Column{Name: "k", Type: row.TypeInt},
		row.Column{Name: "name", Type: row.TypeString},
		row.Column{Name: "v", Type: row.TypeInt},
		row.Column{Name: "f", Type: row.TypeFloat},
	)
	parts := make([][]row.Row, 4)
	for p := range parts {
		for k := p * step; k < p*step+span; k++ {
			parts[p] = append(parts[p], row.Row{row.Int(int64(k)), row.String_(fmt.Sprintf("key-%04d", k)),
				row.Int(int64(k*10 + p)), row.Float(float64(p) + 0.5)})
		}
	}
	var want []row.Row
	for k := 0; k < keys; k++ {
		var n, sum int64
		lo, hi := -1, -1
		for p := range parts {
			if k >= p*step && k < p*step+span {
				n, sum = n+1, sum+int64(k*10+p)
				if lo < 0 {
					lo = p
				}
				hi = p
			}
		}
		name := row.String_(fmt.Sprintf("key-%04d", k))
		want = append(want, row.Row{name, row.Int(int64(k)), row.Int(n), row.Int(sum),
			row.Int(int64(k*10 + lo)), row.Float(float64(hi) + 0.5), name})
	}
	const sql = "SELECT name, k, COUNT(*), SUM(v), MIN(v), MAX(f), MAX(name) FROM many GROUP BY k, name"
	for _, par := range []int{1, 4} {
		e := aggEdgeEngine(t, par)
		if err := e.LoadPartitionedTable("many", s, parts); err != nil {
			t.Fatal(err)
		}
		res, err := e.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		if d := aggDiff(res.Rows(), want); d != "" {
			t.Errorf("P%d: %s", par, d)
		}
		ref, err := referenceQuery(e, sql)
		if err != nil {
			t.Fatal(err)
		}
		if d := aggDiff(ref, want); d != "" {
			t.Errorf("reference: %s", d)
		}
	}
}

// TestAggregateNaNWithinPartition: the DOUBLE rule holds inside one
// partial, where no merge can repair it. NaN first then a number leaves
// MIN at the number; a number first then NaN moves MAX to NaN.
func TestAggregateNaNWithinPartition(t *testing.T) {
	s := row.MustSchema(row.Column{Name: "g", Type: row.TypeInt}, row.Column{Name: "d", Type: row.TypeFloat})
	a, b := row.Int(1), row.Int(2)
	parts := [][]row.Row{
		nil,
		{{a, aggNaN}, {a, row.Float(3)}, {b, row.Float(3)}, {b, aggNaN}, {a, aggNaN}, {b, row.Float(-1)}},
		nil,
		nil,
	}
	e := aggEdgeEngine(t, 1)
	if err := e.LoadPartitionedTable("nanp", s, parts); err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT g, MIN(d), MAX(d) FROM nanp GROUP BY g"
	want := []row.Row{{a, row.Float(3), aggNaN}, {b, row.Float(-1), aggNaN}}
	res, err := e.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if d := aggDiff(res.Rows(), want); d != "" {
		t.Errorf("%s: %s", sql, d)
	}
	ref, err := referenceQuery(e, sql)
	if err != nil {
		t.Fatal(err)
	}
	if d := aggDiff(ref, want); d != "" {
		t.Errorf("reference %s: %s", sql, d)
	}
}
