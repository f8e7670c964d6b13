package sqlengine

import (
	"fmt"
	"math"
	"testing"

	"sqlml/internal/row"
)

// allTypesSchema has one column of each of the four types.
func allTypesSchema() row.Schema {
	return row.MustSchema(
		row.Column{Name: "i", Type: row.TypeInt},
		row.Column{Name: "f", Type: row.TypeFloat},
		row.Column{Name: "s", Type: row.TypeString},
		row.Column{Name: "b", Type: row.TypeBool},
	)
}

// allTypesRows returns n rows cycling through NULLs of every type, empty
// and non-empty strings, negative zero and both booleans; start offsets
// the values so different partitions hold different rows.
func allTypesRows(start, n int) []row.Row {
	out := make([]row.Row, n)
	for k := range out {
		i := start + k
		r := row.Row{
			row.Int(int64(i*7 - 3)),
			row.Float(float64(i) / 3),
			row.String_(fmt.Sprintf("s%d", i%13)),
			row.Bool(i%2 == 0),
		}
		switch i % 6 {
		case 0:
			r[i%4/2] = row.NullOf(row.Type(i % 4 / 2))
		case 1:
			r[2] = row.NullOf(row.TypeString)
			r[3] = row.NullOf(row.TypeBool)
		case 2:
			r[2] = row.String_("")
		case 3:
			r[1] = row.Float(math.Copysign(0, -1))
		}
		out[k] = r
	}
	return out
}

// sameCells reports whether two rows hold the same cells: kind, NULL-ness
// and value, floats by bit pattern.
func sameCells(a, b row.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for c := range a {
		x, y := a[c], b[c]
		if x.Kind != y.Kind || x.Null != y.Null {
			return false
		}
		if x.Null {
			continue
		}
		if x.Kind == row.TypeFloat {
			if math.Float64bits(x.AsFloat()) != math.Float64bits(y.AsFloat()) {
				return false
			}
		} else if !x.Equal(y) {
			return false
		}
	}
	return true
}

func sameRows(t *testing.T, what string, got, want []row.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !sameCells(got[i], want[i]) {
			t.Fatalf("%s: row %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestNewResultPartsRoundTrip pins the row adapters over chunked storage:
// NewResult transposes, Parts and Rows pivot back, cell for cell.
func TestNewResultPartsRoundTrip(t *testing.T) {
	schema := allTypesSchema()
	parts := [][]row.Row{
		allTypesRows(0, 12),
		nil,
		{},
		allTypesRows(100, 2*DefaultBatchSize+7),
		allTypesRows(5000, DefaultBatchSize),
	}
	res := NewResult(schema, parts)
	got, err := res.Parts()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(parts) {
		t.Fatalf("%d partitions, want %d", len(got), len(parts))
	}
	var flat []row.Row
	for i := range parts {
		sameRows(t, fmt.Sprintf("partition %d", i), got[i], parts[i])
		flat = append(flat, parts[i]...)
	}
	sameRows(t, "Rows", res.Rows(), flat)
	if n := res.NumRows(); n != len(flat) {
		t.Errorf("NumRows = %d, want %d", n, len(flat))
	}
	chunks, err := res.chunkParts()
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range chunks {
		for j, c := range p {
			if c.FullLen() == 0 || c.FullLen() > DefaultBatchSize || c.Sel() != nil {
				t.Errorf("partition %d chunk %d: %d rows, selection %v", i, j, c.FullLen(), c.Sel())
			}
		}
	}
	if n := len(chunks[3]); n != 3 {
		t.Errorf("partition of %d rows holds %d chunks, want 3", len(parts[3]), n)
	}
	// A fresh scan of the materialized result reads the same rows.
	iters, err := res.sources()
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range iters {
		rows, err := drainBatches(it)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, fmt.Sprintf("scan of partition %d", i), rows, parts[i])
	}
}

// TestResultNumRowsAllocatesNothing: counting a materialized result sums
// chunk lengths, it does not pivot.
func TestResultNumRowsAllocatesNothing(t *testing.T) {
	e := newTestEngine(t)
	if err := e.LoadTable("t", allTypesSchema(), allTypesRows(0, 3*DefaultBatchSize)); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query("SELECT i, s FROM t WHERE i > 0")
	if err != nil {
		t.Fatal(err)
	}
	want := res.NumRows()
	if allocs := testing.AllocsPerRun(50, func() {
		if res.NumRows() != want {
			t.Fatal("NumRows changed")
		}
	}); allocs != 0 {
		t.Errorf("NumRows allocates %.1f times per call, want 0", allocs)
	}
}

// TestInsertDuringOpenScan: an INSERT publishes new chunks and leaves
// every published one alone, so a scan opened before it — mid-way
// through its partition or not yet started — returns exactly the rows it
// started on, while the next scan sees the insert.
func TestInsertDuringOpenScan(t *testing.T) {
	e := newTestEngine(t)
	schema := allTypesSchema()
	base := allTypesRows(0, 2*DefaultBatchSize*e.NumWorkers()+10)
	if err := e.LoadTable("t", schema, base); err != nil {
		t.Fatal(err)
	}
	tbl, err := e.Catalog().Get("t")
	if err != nil {
		t.Fatal(err)
	}
	before := tbl.partitions()
	oldChunks := tbl.chunks()
	iters, err := e.scanTable(tbl)
	if err != nil {
		t.Fatal(err)
	}
	// Partition 0's scan is one chunk in; the others have not started.
	first, ok, err := iters[0].NextCol()
	if err != nil || !ok {
		t.Fatalf("first batch: ok=%v err=%v", ok, err)
	}
	read0 := first.Rows(nil)

	// Enough rows to reach every partition, so each tail chunk (which has
	// room) is replaced by a grown copy.
	insert := "INSERT INTO t VALUES (1, 1.5, 'new', TRUE), (2, NULL, '', FALSE), (3, 2.5, NULL, NULL), (4, 0.5, 'x', TRUE), (5, 9.0, 'y', FALSE)"
	if _, err := e.Run(insert); err != nil {
		t.Fatal(err)
	}
	for i, it := range iters {
		rest, err := drainBatches(it)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			rest = append(read0, rest...)
		}
		sameRows(t, fmt.Sprintf("open scan of partition %d", i), rest, before[i])
	}
	for i, p := range oldChunks {
		sameRows(t, fmt.Sprintf("published chunks of partition %d", i), chunkRows(p), before[i])
	}
	if n := tbl.NumRows(); n != len(base)+5 {
		t.Errorf("after INSERT the table has %d rows, want %d", n, len(base)+5)
	}
	res, err := e.Query("SELECT COUNT(*) FROM t WHERE s = 'new' OR s = 'x' OR s = 'y'")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows()[0][0].AsInt(); got != 3 {
		t.Errorf("a scan after the INSERT sees %d of its rows, want 3", got)
	}
	for i, p := range tbl.chunks() {
		for j, c := range p {
			if c.FullLen() > DefaultBatchSize {
				t.Errorf("partition %d chunk %d holds %d rows", i, j, c.FullLen())
			}
		}
	}
}
