package hadoopfmt

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"sqlml/internal/cluster"
	"sqlml/internal/dfs"
	"sqlml/internal/row"
)

// edgeValueSchema has every column type, VARCHAR twice so that two
// string fields meet at a separator.
func edgeValueSchema() row.Schema {
	return row.MustSchema(
		row.Column{Name: "i", Type: row.TypeInt},
		row.Column{Name: "f", Type: row.TypeFloat},
		row.Column{Name: "s", Type: row.TypeString},
		row.Column{Name: "b", Type: row.TypeBool},
		row.Column{Name: "t", Type: row.TypeString},
	)
}

// edgeValueRow draws one row over edgeValueSchema from the values the
// encoder treats specially, each cell NULL one time in four.
func edgeValueRow(rng *rand.Rand) row.Row {
	ints := []int64{0, -1, 7, math.MinInt64, math.MaxInt64, rng.Int63() - rng.Int63()}
	floats := []float64{math.Copysign(0, -1), 0, math.NaN(), math.Inf(1), math.Inf(-1), 1e21, 5e-324, 0.1, -2.5, rng.NormFloat64() * 1e6}
	strs := []string{"", ",", `"`, `\`, "\n", "plain", `a,"b"\c` + "\nd", " lead", `""`, "x\\n"}
	pick := func(v row.Value) row.Value {
		if rng.Intn(4) == 0 {
			return row.NullOf(v.Kind)
		}
		return v
	}
	return row.Row{
		pick(row.Int(ints[rng.Intn(len(ints))])),
		pick(row.Float(floats[rng.Intn(len(floats))])),
		pick(row.String_(strs[rng.Intn(len(strs))])),
		pick(row.Bool(rng.Intn(2) == 0)),
		pick(row.String_(strs[rng.Intn(len(strs))] + strs[rng.Intn(len(strs))])),
	}
}

// edgeBatches builds random batches over edgeValueSchema: empty ones,
// batches of up to two DefaultBatchSizes of rows, and about half of them
// under a random selection, which may be empty.
func edgeBatches(rng *rand.Rand, n int) []*row.ColBatch {
	types := row.SchemaTypes(edgeValueSchema())
	out := make([]*row.ColBatch, n)
	for k := range out {
		rows := make([]row.Row, []int{0, 1, 1 + rng.Intn(40), 1 + rng.Intn(2*row.DefaultBatchSize)}[rng.Intn(4)])
		for i := range rows {
			rows[i] = edgeValueRow(rng)
		}
		b := row.NewColBatch(types)
		b.FromRows(types, rows)
		if rng.Intn(2) == 0 {
			sel := []int32{}
			for i := range rows {
				if rng.Intn(3) != 0 {
					sel = append(sel, int32(i))
				}
			}
			b.SetSel(sel)
		}
		out[k] = b
	}
	return out
}

// TestWriteBatchMatchesWriteRow holds the export path to the row path:
// WriteBatch writes exactly the bytes WriteRow writes for the batch's live
// rows, batch by batch and over a whole file: NULL against "", every
// quoting and escaping case, -0, NaN, ±Inf, 1e21, 5e-324, the BIGINT
// extremes and BOOLEANs, with and without a selection, and empty batches.
func TestWriteBatchMatchesWriteRow(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	topo := cluster.NewTopology(1)
	fs := dfs.New(topo, dfs.Config{BlockSize: 4096})
	node := topo.Node(0)
	schema := edgeValueSchema()
	byBatch, err := NewTextTableWriter(fs, "/batch", schema, node)
	if err != nil {
		t.Fatal(err)
	}
	byRow, err := NewTextTableWriter(fs, "/row", schema, node)
	if err != nil {
		t.Fatal(err)
	}
	for k, b := range edgeBatches(rng, 200) {
		var want []byte
		for _, r := range b.Rows(nil) {
			want = row.AppendLine(want, r)
			if err := byRow.WriteRow(r); err != nil {
				t.Fatal(err)
			}
		}
		if got := row.AppendLines(nil, b); !bytes.Equal(got, want) {
			t.Fatalf("batch %d (%d live of %d): AppendLines wrote\n%q\nAppendLine writes\n%q", k, b.Len(), b.FullLen(), got, want)
		}
		if err := byBatch.WriteBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	nb, err := byBatch.Close()
	if err != nil {
		t.Fatal(err)
	}
	nr, err := byRow.Close()
	if err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/batch", node)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fs.ReadFile("/row", node)
	if err != nil {
		t.Fatal(err)
	}
	if nb != nr || !bytes.Equal(got, want) {
		t.Errorf("WriteBatch wrote %d bytes (Close says %d), WriteRow %d (Close says %d); files differ: %v", len(got), nb, len(want), nr, !bytes.Equal(got, want))
	}
	for _, s := range []string{`""`, `","`, `""""`, `"\\"`, `"\n"`, "-0,", "NaN", "+Inf", "-Inf", "1e+21", "5e-324", "-9223372036854775808", "9223372036854775807", "true", "false"} {
		if !strings.Contains(string(got), s) {
			t.Errorf("no batch wrote %q; the generator missed a case", s)
		}
	}
}

// TestWriteBatchRejectsMisshapenBatch: a batch whose vector types are not
// the schema's fails the write and aborts the file, as a non-conforming
// row does.
func TestWriteBatchRejectsMisshapenBatch(t *testing.T) {
	topo := cluster.NewTopology(1)
	fs := dfs.New(topo, dfs.Config{})
	w, err := NewTextTableWriter(fs, "/bad", tableSchema(), topo.Node(0))
	if err != nil {
		t.Fatal(err)
	}
	b := row.NewColBatch([]row.Type{row.TypeString, row.TypeString})
	b.AppendRow(row.Row{row.String_("not-an-int"), row.String_("x")})
	if err := w.WriteBatch(b); err == nil {
		t.Error("misshapen batch accepted")
	}
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/bad") {
		t.Error("aborted write left a file behind")
	}
}

// BenchmarkWriteBatch writes batches of DefaultBatchSize rows of the
// paper's cart shape (four numbers and a short VARCHAR, some NULLs) to a
// DFS text file: the export's encode-and-write cost per batch. The file is
// discarded and begun again every 64 batches, so the simulated DFS holds
// at most a few MB whatever b.N is.
func BenchmarkWriteBatch(b *testing.B) {
	schema := row.MustSchema(
		row.Column{Name: "cartid", Type: row.TypeInt},
		row.Column{Name: "userid", Type: row.TypeInt},
		row.Column{Name: "amount", Type: row.TypeFloat},
		row.Column{Name: "nitems", Type: row.TypeInt},
		row.Column{Name: "abandoned", Type: row.TypeString},
	)
	rows := make([]row.Row, row.DefaultBatchSize)
	for i := range rows {
		rows[i] = row.Row{row.Int(int64(i)), row.Int(int64(i / 100)), row.Float(float64(i) * 1.37), row.Int(int64(i % 9)), row.String_([]string{"Yes", "No"}[i%2])}
		if i%10 == 0 {
			rows[i][3] = row.NullOf(row.TypeInt)
		}
	}
	types := row.SchemaTypes(schema)
	batch := row.NewColBatch(types)
	batch.FromRows(types, rows)
	topo := cluster.NewTopology(1)
	fs := dfs.New(topo, dfs.Config{BlockSize: 1 << 20, Replication: 1})
	var w *TextTableWriter
	b.ReportAllocs()
	for i := range b.N {
		if i%64 == 0 {
			if w != nil {
				w.Abort()
			}
			var err error
			if w, err = NewTextTableWriter(fs, "/bench", schema, topo.Node(0)); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.WriteBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	w.Abort()
}
