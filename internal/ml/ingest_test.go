package ml

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"sqlml/internal/cluster"
	"sqlml/internal/hadoopfmt"
	"sqlml/internal/row"
)

// testBatch is one ColBatch a batchFormat serves: physical rows plus an
// optional selection vector (nil = every row live).
type testBatch struct {
	rows []row.Row
	sel  []int32
}

// batchFormat is an InputFormat whose readers serve prepared batches,
// selections included, through NextColBatch only; one split per entry of
// splits.
type batchFormat struct {
	schema row.Schema
	splits [][]testBatch
	// failAfter, when > 0, makes every split's first reader — or its first
	// failReaders readers, when that is set — fail with a retryable error
	// after serving that many batches.
	failAfter   int
	failReaders int
	opens       atomic.Int64
	attempts    []atomic.Int64
}

func newBatchFormat(schema row.Schema, splits [][]testBatch) *batchFormat {
	return &batchFormat{schema: schema, splits: splits, attempts: make([]atomic.Int64, len(splits))}
}

type batchSplit int

func (batchSplit) Locations() []string { return nil }
func (batchSplit) Length() int64       { return 1 }
func (s batchSplit) String() string    { return fmt.Sprintf("batches#%d", int(s)) }

func (f *batchFormat) Schema() (row.Schema, error) { return f.schema, nil }

func (f *batchFormat) Splits(int) ([]hadoopfmt.InputSplit, error) {
	out := make([]hadoopfmt.InputSplit, len(f.splits))
	for i := range out {
		out[i] = batchSplit(i)
	}
	return out, nil
}

func (f *batchFormat) Open(split hadoopfmt.InputSplit, _ *cluster.Node) (hadoopfmt.RecordReader, error) {
	i := int(split.(batchSplit))
	f.opens.Add(1)
	r := &batchReader{types: row.SchemaTypes(f.schema), batches: f.splits[i]}
	if n := f.attempts[i].Add(1); f.failAfter > 0 && n <= int64(max(f.failReaders, 1)) {
		r.failAfter = f.failAfter
	}
	return r, nil
}

type batchReader struct {
	types     []row.Type
	batches   []testBatch
	next      int
	failAfter int
}

func (r *batchReader) NextColBatch(dst *row.ColBatch) (int, bool, error) {
	if r.failAfter > 0 && r.next == r.failAfter {
		return 0, false, &hadoopfmt.RetryableError{Err: errors.New("reader crashed")}
	}
	if r.next == len(r.batches) {
		return 0, false, nil
	}
	b := r.batches[r.next]
	r.next++
	dst.FromRows(r.types, b.rows)
	if b.sel != nil {
		dst.SetSel(append([]int32{}, b.sel...))
	}
	return dst.Len(), true, nil
}

func (r *batchReader) Next() (row.Row, bool, error) {
	return nil, false, errors.New("batchReader serves batches only")
}

func (r *batchReader) Close() error { return nil }

// edgeSchema puts the label between an INT and a DOUBLE feature, so
// neither face can get away with assuming the label is the last column.
func edgeSchema() row.Schema {
	return row.MustSchema(
		row.Column{Name: "age", Type: row.TypeInt},
		row.Column{Name: "y", Type: row.TypeInt},
		row.Column{Name: "amount", Type: row.TypeFloat},
	)
}

var (
	nullInt   = row.NullOf(row.TypeInt)
	nullFloat = row.NullOf(row.TypeFloat)
)

// edgeSplits builds two splits of eight live rows each, every split three
// batches: one under a selection that skips NULL label and NULL feature
// slots, one with no selection, and one whose selection is empty and whose
// every slot is NULL. It also returns the live rows in order.
func edgeSplits() ([][]testBatch, []row.Row) {
	var splits [][]testBatch
	var live []row.Row
	v := int64(0)
	mk := func() row.Row {
		v++
		return row.Row{row.Int(20 + v), row.Int(1 + v%2), row.Float(float64(v) * 1.25)}
	}
	for s := 0; s < 2; s++ {
		sel := testBatch{
			rows: []row.Row{
				{nullInt, nullInt, nullFloat},
				mk(), mk(),
				{row.Int(99), nullInt, row.Float(9.5)},
				mk(), mk(),
			},
			sel: []int32{1, 2, 4, 5},
		}
		dense := testBatch{rows: []row.Row{mk(), mk(), mk(), mk()}}
		empty := testBatch{
			rows: []row.Row{{nullInt, nullInt, nullFloat}, {row.Int(1), nullInt, nullFloat}},
			sel:  []int32{},
		}
		for _, b := range []testBatch{sel, dense} {
			for _, p := range b.sel {
				live = append(live, b.rows[p])
			}
			if b.sel == nil {
				live = append(live, b.rows...)
			}
		}
		splits = append(splits, []testBatch{sel, dense, empty})
	}
	return splits, live
}

func edgeOptions(nodes []*cluster.Node) IngestOptions {
	return IngestOptions{
		LabelCol:       "y",
		LabelTransform: func(v float64) float64 { return 2 - v },
		NumWorkers:     2,
		Nodes:          nodes,
	}
}

// TestIngestColumnarFaceMatchesRowFace feeds the same live rows through
// batchFormat (selection vectors, NULLs in unselected slots, INT and
// DOUBLE features, a label transform) and through SliceFormat, whose
// reader builds dense batches from its rows, and requires identical
// partitions, both equal to points built by hand.
func TestIngestColumnarFaceMatchesRowFace(t *testing.T) {
	topo := cluster.NewTopology(2)
	splits, live := edgeSplits()
	col, err := Ingest(newBatchFormat(edgeSchema(), splits), edgeOptions(topo.Nodes()))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Ingest(&hadoopfmt.SliceFormat{Rows: live, RowSchema: edgeSchema()}, edgeOptions(topo.Nodes()))
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]LabeledPoint, 2)
	for i, r := range live {
		p := LabeledPoint{Label: 2 - r[1].AsFloat(), Features: []float64{r[0].AsFloat(), r[2].AsFloat()}}
		want[i/8] = append(want[i/8], p)
	}
	if !reflect.DeepEqual(col.Parts, want) {
		t.Errorf("batchFormat:\n got %v\nwant %v", col.Parts, want)
	}
	if !reflect.DeepEqual(rows.Parts, want) {
		t.Errorf("SliceFormat:\n got %v\nwant %v", rows.Parts, want)
	}
	if col.NumFeatures != 2 || rows.NumFeatures != 2 {
		t.Errorf("NumFeatures = %d (batchFormat), %d (SliceFormat); want 2", col.NumFeatures, rows.NumFeatures)
	}
}

// TestIngestNullErrors checks the NULL-label and NULL-feature errors over
// SliceFormat and over batchFormat, whose batch hides a row of NULLs
// behind its selection. Labels are checked for the whole batch before any
// feature column, so a NULL label wins over a NULL feature in an earlier
// row on both.
func TestIngestNullErrors(t *testing.T) {
	topo := cluster.NewTopology(2)
	ok := row.Row{row.Int(30), row.Int(1), row.Float(2.5)}
	masked := row.Row{nullInt, nullInt, nullFloat}
	cases := []struct {
		name string
		rows []row.Row
		err  string
	}{
		{"null label", []row.Row{ok, {row.Int(31), nullInt, row.Float(1)}}, "ml: NULL label"},
		{"null int feature", []row.Row{ok, {nullInt, row.Int(2), row.Float(1)}}, "ml: NULL feature in column 0"},
		{"null double feature", []row.Row{{row.Int(31), row.Int(2), nullFloat}, ok}, "ml: NULL feature in column 2"},
		{"null label after null feature", []row.Row{{nullInt, row.Int(2), row.Float(1)}, {row.Int(31), nullInt, row.Float(1)}}, "ml: NULL label"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := edgeOptions(topo.Nodes())
			opts.NumWorkers = 1
			sel := testBatch{rows: append([]row.Row{masked}, tc.rows...)}
			for i := range tc.rows {
				sel.sel = append(sel.sel, int32(i+1))
			}
			f := newBatchFormat(edgeSchema(), [][]testBatch{{sel}})
			if _, err := Ingest(f, opts); err == nil || err.Error() != tc.err {
				t.Errorf("batchFormat: err = %v, want %q", err, tc.err)
			}
			if n := f.opens.Load(); n != 1 {
				t.Errorf("batchFormat opened the split %d times; a NULL is not retryable", n)
			}
			sf := &hadoopfmt.SliceFormat{Rows: tc.rows, RowSchema: edgeSchema()}
			if _, err := Ingest(sf, opts); err == nil || err.Error() != tc.err {
				t.Errorf("SliceFormat: err = %v, want %q", err, tc.err)
			}
		})
	}
}

// A malformed row in a SliceFormat is an ingest error naming the row, not
// a panic in the split's goroutine.
func TestIngestSliceFormatRejectsMalformedRows(t *testing.T) {
	topo := cluster.NewTopology(2)
	for _, tc := range []struct {
		name string
		bad  row.Row
	}{
		{"short row", row.Row{row.Int(1)}},
		{"VARCHAR in a BIGINT column", row.Row{row.Int(1), row.String_("yes"), row.Float(1)}},
	} {
		rows := append(manyRows(5), tc.bad)
		opts := edgeOptions(topo.Nodes())
		opts.NumWorkers = 1
		_, err := Ingest(&hadoopfmt.SliceFormat{Rows: rows, RowSchema: edgeSchema()}, opts)
		if err == nil || !strings.Contains(err.Error(), "row 5") {
			t.Errorf("%s: err = %v, want one naming row 5", tc.name, err)
		}
	}
}

// manyRows returns n live rows over edgeSchema.
func manyRows(n int) []row.Row {
	out := make([]row.Row, n)
	for i := range out {
		out[i] = row.Row{row.Int(int64(i)), row.Int(int64(1 + i%2)), row.Float(float64(i) / 4)}
	}
	return out
}

// batchesOf cuts rows into dense batches of at most size rows.
func batchesOf(rows []row.Row, size int) []testBatch {
	var out []testBatch
	for lo := 0; lo < len(rows); lo += size {
		out = append(out, testBatch{rows: rows[lo:min(lo+size, len(rows))]})
	}
	return out
}

// TestIngestPointsOwnTheirFeatures checks, over batchFormat ("columnar")
// and SliceFormat ("row") and across chunk boundaries, that every point's
// feature slice is capped at NumFeatures, so appending to one point never
// writes into its neighbour's features.
func TestIngestPointsOwnTheirFeatures(t *testing.T) {
	topo := cluster.NewTopology(2)
	rows := manyRows(2*row.DefaultBatchSize + 300)
	opts := edgeOptions(topo.Nodes())
	opts.NumWorkers = 1
	faces := map[string]hadoopfmt.InputFormat{
		"columnar": newBatchFormat(edgeSchema(), [][]testBatch{batchesOf(rows, 700)}),
		"row":      &hadoopfmt.SliceFormat{Rows: rows, RowSchema: edgeSchema()},
	}
	for name, f := range faces {
		t.Run(name, func(t *testing.T) {
			d, err := Ingest(f, opts)
			if err != nil {
				t.Fatal(err)
			}
			all := d.All()
			if len(all) != len(rows) {
				t.Fatalf("%d points, want %d", len(all), len(rows))
			}
			for k, p := range all {
				if cap(p.Features) != d.NumFeatures || len(p.Features) != d.NumFeatures {
					t.Fatalf("point %d: len %d cap %d, want both %d", k, len(p.Features), cap(p.Features), d.NumFeatures)
				}
			}
			for k := 0; k+1 < len(all); k++ {
				next := append([]float64{}, all[k+1].Features...)
				_ = append(all[k].Features, -1, -2)
				if !reflect.DeepEqual(all[k+1].Features, next) {
					t.Fatalf("appending to point %d changed point %d: %v, was %v", k, k+1, all[k+1].Features, next)
				}
			}
		})
	}
}

// TestIngestRetryDiscardsPartialSplit fails every split's first reader
// retryably after two batches; re-execution must yield exactly the
// fault-free dataset, with no point duplicated from the failed attempt.
func TestIngestRetryDiscardsPartialSplit(t *testing.T) {
	topo := cluster.NewTopology(2)
	rows := manyRows(3000)
	splits := [][]testBatch{batchesOf(rows[:1400], 300), batchesOf(rows[1400:], 512)}
	opts := edgeOptions(topo.Nodes())
	clean, err := Ingest(newBatchFormat(edgeSchema(), splits), opts)
	if err != nil {
		t.Fatal(err)
	}
	faulty := newBatchFormat(edgeSchema(), splits)
	faulty.failAfter = 2
	got, err := Ingest(faulty, opts)
	if err != nil {
		t.Fatal(err)
	}
	if n := faulty.opens.Load(); n != 4 {
		t.Errorf("%d opens, want 4 (each split once failed, once clean)", n)
	}
	if got.NumRows() != len(rows) {
		t.Errorf("%d points after retry, want %d", got.NumRows(), len(rows))
	}
	if !reflect.DeepEqual(got.Parts, clean.Parts) {
		t.Error("dataset after a retried split differs from the fault-free one")
	}
}

// TestIngestRetryBudget: a split whose readers keep failing retryably
// fails Ingest after exactly hadoopfmt.MaxTaskAttempts opens, with the
// budget named and the RetryableError still reachable. The readers fail
// for twice the budget, so a runner that ignores it fails here instead of
// spinning.
func TestIngestRetryBudget(t *testing.T) {
	topo := cluster.NewTopology(2)
	f := newBatchFormat(edgeSchema(), [][]testBatch{batchesOf(manyRows(100), 10)})
	f.failAfter, f.failReaders = 2, 2*hadoopfmt.MaxTaskAttempts
	_, err := Ingest(f, edgeOptions(topo.Nodes()))
	if err == nil {
		t.Fatal("Ingest succeeded past the attempt budget")
	}
	if n := f.opens.Load(); n != hadoopfmt.MaxTaskAttempts {
		t.Errorf("%d opens, want the attempt budget (%d)", n, hadoopfmt.MaxTaskAttempts)
	}
	if budget := fmt.Sprintf("attempt budget (%d) exhausted", hadoopfmt.MaxTaskAttempts); !strings.Contains(err.Error(), budget) {
		t.Errorf("error does not name the exhausted budget: %v", err)
	}
	if !hadoopfmt.IsRetryable(err) {
		t.Errorf("exhausted-budget error no longer unwraps to the RetryableError: %v", err)
	}
}

// TestSVMWeightsBitIdentical pins DefaultSGD's weights and intercept on a
// fixed dataset to the bit, so a change to how the trainer lays out its
// intercept-extended copy cannot move the model.
func TestSVMWeightsBitIdentical(t *testing.T) {
	m, err := TrainSVMWithSGD(syntheticBinary(500, 4, 2), DefaultSGD())
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Weights) != 2 {
		t.Fatalf("%d weights, want 2", len(m.Weights))
	}
	got := []float64{m.Weights[0], m.Weights[1], m.Intercept}
	// Recorded from the per-point copy the trainer made before it used a
	// per-partition slab.
	want := []uint64{0x4002229cc6a89447, 0xbff2543ec1b914e0, 0xbfc0cc98d29ee01d}
	for i, w := range want {
		if bits := math.Float64bits(got[i]); bits != w {
			t.Errorf("coefficient %d = %v (%#x), want %#x", i, got[i], bits, w)
		}
	}
}
