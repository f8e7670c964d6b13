package sqlengine

import (
	"fmt"
	"math/rand"
	"testing"

	"sqlml/internal/cluster"
	"sqlml/internal/row"
)

// Key-less (cartesian) joins: the broadcast nested loop pairs every probe
// row with every build row, in build order. No corpus query reaches it,
// so these cases pin it to referenceQuery directly.

// cartesianRows holds the key-less join tests' tables, loaded by
// cartesianEngine:
//   - p (2 rows) × u (2 200 rows, NULL-heavy VARCHARs): every probe row's
//     pairs span three output batches;
//   - t (600 rows) × x (5 rows): each partition's product overflows one
//     output batch across probe rows;
//   - y (6 rows) is joined on a key to the t × x product;
//   - z is empty.
type cartesianRows struct {
	p, u, t, x, y []row.Row
}

func newCartesianRows() cartesianRows {
	rng := rand.New(rand.NewSource(35))
	str := func(nullEvery int) row.Value {
		if rng.Intn(nullEvery) != 0 {
			return row.NullOf(row.TypeString)
		}
		return row.String_(probeStrings[rng.Intn(len(probeStrings))])
	}
	var d cartesianRows
	for i := 0; i < 2; i++ {
		d.p = append(d.p, row.Row{row.Int(int64(i)), str(2)})
	}
	for i := 0; i < 2200; i++ {
		f := row.Float(rng.Float64())
		if i%5 == 0 {
			f = row.NullOf(row.TypeFloat)
		}
		d.u = append(d.u, row.Row{row.Int(int64(i)), str(3), f, str(4)})
	}
	cats := []string{"a", "b", "c"}
	for i := 0; i < 600; i++ {
		cat := row.String_(cats[rng.Intn(len(cats))])
		if i%7 == 0 {
			cat = row.NullOf(row.TypeString)
		}
		d.t = append(d.t, row.Row{row.Int(int64(i)), row.Int(int64(rng.Intn(10))), cat})
	}
	for i := 0; i < 5; i++ {
		lab := row.String_(cats[i%len(cats)])
		if i == 3 {
			lab = row.NullOf(row.TypeString)
		}
		d.x = append(d.x, row.Row{row.Int(int64(i % 3)), row.Int(int64(2 * i)), lab})
	}
	for i := 0; i < 6; i++ {
		d.y = append(d.y, row.Row{row.Int(int64(i % 4)), row.String_(fmt.Sprint("tag", i))})
	}
	return d
}

// cartesianEngine loads d over two workers, so every table of more than
// one row spans both partitions.
func cartesianEngine(t *testing.T, d cartesianRows, par int, cost *cluster.CostModel) *Engine {
	t.Helper()
	e, err := New(cluster.NewTopology(3), cost, Config{HeadNodeID: 0, WorkerNodeIDs: []int{1, 2}, Parallelism: par})
	if err != nil {
		t.Fatal(err)
	}
	col := func(name string, typ row.Type) row.Column { return row.Column{Name: name, Type: typ} }
	for _, tb := range []struct {
		name   string
		schema row.Schema
		rows   []row.Row
	}{
		{"p", row.MustSchema(col("id", row.TypeInt), col("tag", row.TypeString)), d.p},
		{"u", row.MustSchema(col("n", row.TypeInt), col("s", row.TypeString), col("f", row.TypeFloat), col("s2", row.TypeString)), d.u},
		{"t", row.MustSchema(col("id", row.TypeInt), col("v", row.TypeInt), col("cat", row.TypeString)), d.t},
		{"x", row.MustSchema(col("k", row.TypeInt), col("n", row.TypeInt), col("lab", row.TypeString)), d.x},
		{"y", row.MustSchema(col("k", row.TypeInt), col("tag", row.TypeString)), d.y},
		{"z", row.MustSchema(col("a", row.TypeInt), col("b", row.TypeString)), nil},
	} {
		if err := e.LoadTable(tb.name, tb.schema, tb.rows); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// cartesianQueries: a build side over DefaultBatchSize rows, a product
// overflowing one output batch, a residual WHERE over the product, a
// cartesian join feeding a keyed join, and an empty build side.
var cartesianQueries = []string{
	"SELECT * FROM p, u",
	"SELECT t.id, t.cat, x.n, x.lab FROM t, x",
	"SELECT t.id, x.n, x.lab FROM t, x WHERE t.v < x.n AND t.cat <> x.lab",
	"SELECT t.id, x.lab, y.tag FROM t, x, y WHERE x.k = y.k",
	"SELECT t.id, z.b FROM t, z",
}

// TestCartesianJoinMatchesReference holds every key-less join to
// referenceQuery as an exact sequence at Parallelism 1, 2 and 4, and every
// P>1 run to P=1 row for row. With an empty build side the probe still
// reads, and is charged for, every input batch: the processing bytes are
// partBytes of the probe table.
func TestCartesianJoinMatchesReference(t *testing.T) {
	d := newCartesianRows()
	ref := cartesianEngine(t, d, 1, nil)
	seq := make(map[string]string)
	for _, par := range []int{1, 2, 4} {
		for _, sql := range cartesianQueries {
			want, err := referenceQuery(ref, sql)
			if err != nil {
				t.Fatalf("%s: reference: %v", sql, err)
			}
			cost := &cluster.CostModel{ProcBps: 1e9}
			res, err := cartesianEngine(t, d, par, cost).Query(sql)
			if err != nil {
				t.Fatalf("P=%d: %s: %v", par, sql, err)
			}
			got := fmt.Sprint(rowStrings(res.Rows()))
			if w := fmt.Sprint(rowStrings(want)); got != w {
				t.Fatalf("P=%d: %s: %d rows, reference %d, sequences differ:\n engine:    %.300s\n reference: %.300s",
					par, sql, res.NumRows(), len(want), got, w)
			}
			if par == 1 {
				seq[sql] = got
			} else if got != seq[sql] {
				t.Fatalf("P=%d: %s: differs from P=1", par, sql)
			}
			if sql == cartesianQueries[len(cartesianQueries)-1] {
				if got, want := cost.Stats().ProcBytes, int64(partBytes(d.t)); got != want {
					t.Fatalf("P=%d: %s: probe charged %d bytes, partBytes of the probe input = %d", par, sql, got, want)
				}
			}
		}
	}
}
