package hadoopfmt

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"sqlml/internal/cluster"
	"sqlml/internal/dfs"
	"sqlml/internal/row"
)

// The reader has two faces over one line framer and one decoder
// (DecodeLineInto): NextColBatch (typed vectors) and Next (one row, through
// a one-row batch). These tests hold the faces to each other and to what
// was written, over every way a split can cut the file.

func scanSchema() row.Schema {
	return row.MustSchema(
		row.Column{Name: "id", Type: row.TypeInt},
		row.Column{Name: "amount", Type: row.TypeFloat},
		row.Column{Name: "name", Type: row.TypeString},
		row.Column{Name: "flag", Type: row.TypeBool},
	)
}

func scanRows(n int, rng *rand.Rand) []row.Row {
	names := []string{"alice", "", "with,comma", `with"quote`, `back\slash`, "two\nlines", `"`, strings.Repeat("wide", 20)}
	maybeNull := func(v row.Value) row.Value {
		if rng.Intn(3) == 0 {
			return row.NullOf(v.Kind)
		}
		return v
	}
	rows := make([]row.Row, n)
	for i := range rows {
		rows[i] = row.Row{
			row.Int(int64(i)), // never NULL: it identifies the line
			maybeNull(row.Float(float64(rng.Intn(2000)-1000) / 8)),
			maybeNull(row.String_(names[rng.Intn(len(names))])),
			maybeNull(row.Bool(rng.Intn(2) == 0)),
		}
	}
	return rows
}

// readSplits drains every split in order through one face of the reader.
func readSplits(t testing.TB, f *TextTableFormat, splits []InputSplit, columnar bool) []row.Row {
	t.Helper()
	var out []row.Row
	cb := row.NewColBatch(nil)
	for _, s := range splits {
		rr, err := f.Open(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		for {
			if columnar {
				n, ok, err := rr.NextColBatch(cb)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				if n != cb.Len() || n == 0 || n > row.DefaultBatchSize {
					t.Fatalf("NextColBatch returned n=%d for a batch of %d rows", n, cb.Len())
				}
				out = cb.Rows(out)
				continue
			}
			r, ok, err := rr.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			out = append(out, r)
		}
		if err := rr.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func sameRows(t testing.TB, what string, got, want []row.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s: row %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// Random rows × block sizes × block-aligned and even splits: both faces
// return exactly the rows written, in order — which is also the statement
// that the splits partition the lines, none lost, none read twice.
func TestPropertyColBatchFaceMatchesRowFace(t *testing.T) {
	topo := cluster.NewTopology(2)
	rng := rand.New(rand.NewSource(41))
	for iter := 0; iter < 16; iter++ {
		all := scanRows(rng.Intn(90), rng)
		for _, bs := range []int64{1, 7, 64, 4096} {
			// Tiny blocks get fewer rows: the DFS walks a file's block list on
			// every Stat and fetch, so a block per byte is quadratic.
			rows := all[:min(len(all), 12*int(bs))]
			fs := dfs.New(topo, dfs.Config{BlockSize: bs, Replication: 1})
			if _, err := WriteTextTable(fs, "/t", scanSchema(), rows, topo.Node(0)); err != nil {
				t.Fatal(err)
			}
			f := NewTextTableFormat(fs, "/t", scanSchema())
			for _, numSplits := range []int{0, 1 + rng.Intn(9)} {
				splits, err := f.Splits(numSplits)
				if err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("iter %d: %d rows, block %d, Splits(%d) = %d splits", iter, len(rows), bs, numSplits, len(splits))
				sameRows(t, what+": Next", readSplits(t, f, splits, false), rows)
				sameRows(t, what+": NextColBatch", readSplits(t, f, splits, true), rows)
			}
		}
	}
}

// TestNextAndNextColBatchInterleave alternates a few rows of Next with a
// batch of NextColBatch over one split, on the text table and on
// SliceFormat: each reader has one cursor, so every row is served once, in
// order.
func TestNextAndNextColBatchInterleave(t *testing.T) {
	topo := cluster.NewTopology(1)
	fs := dfs.New(topo, dfs.Config{BlockSize: 512, Replication: 1})
	rows := scanRows(2*row.DefaultBatchSize+300, rand.New(rand.NewSource(3)))
	if _, err := WriteTextTable(fs, "/t", scanSchema(), rows, topo.Node(0)); err != nil {
		t.Fatal(err)
	}
	formats := map[string]InputFormat{
		"text":  NewTextTableFormat(fs, "/t", scanSchema()),
		"slice": &SliceFormat{Rows: rows, RowSchema: scanSchema()},
	}
	for name, f := range formats {
		t.Run(name, func(t *testing.T) {
			splits, err := f.Splits(1)
			if err != nil {
				t.Fatal(err)
			}
			rr, err := f.Open(splits[0], nil)
			if err != nil {
				t.Fatal(err)
			}
			cb := row.NewColBatch(nil)
			var got []row.Row
			for turn := 0; ; turn++ {
				if turn%2 == 0 {
					// A few rows through the row face, then a batch.
					stop := false
					for i := 0; i < 5 && !stop; i++ {
						r, ok, err := rr.Next()
						if err != nil {
							t.Fatal(err)
						}
						if stop = !ok; ok {
							got = append(got, r)
						}
					}
					if stop {
						break
					}
					continue
				}
				_, ok, err := rr.NextColBatch(cb)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				got = cb.Rows(got)
			}
			if err := rr.Close(); err != nil {
				t.Fatal(err)
			}
			sameRows(t, name+": interleaved faces", got, rows)
		})
	}
}

// rawTable writes bytes as they are, for files WriteTextTable cannot make.
func rawTable(t testing.TB, blockSize int64, data string) *TextTableFormat {
	t.Helper()
	topo := cluster.NewTopology(1)
	fs := dfs.New(topo, dfs.Config{BlockSize: blockSize, Replication: 1})
	if err := fs.WriteFile("/raw", []byte(data), topo.Node(0)); err != nil {
		t.Fatal(err)
	}
	return NewTextTableFormat(fs, "/raw", scanSchema())
}

func TestLineLongerThanReadBuffer(t *testing.T) {
	wide := strings.Repeat(`x,"y\`, 40<<10) // 200 KB, every byte of it needing the quoted form
	rows := []row.Row{
		{row.Int(0), row.Float(1), row.String_("before"), row.Bool(true)},
		{row.Int(1), row.Float(2), row.String_(wide), row.Bool(false)},
		{row.Int(2), row.Float(3), row.String_("after"), row.NullOf(row.TypeBool)},
	}
	var data []byte
	for _, r := range rows {
		data = row.AppendLine(data, r)
	}
	f := rawTable(t, 64<<10, string(data))
	for _, numSplits := range []int{0, 1, 5} {
		splits, err := f.Splits(numSplits)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, fmt.Sprintf("Splits(%d): Next", numSplits), readSplits(t, f, splits, false), rows)
		sameRows(t, fmt.Sprintf("Splits(%d): NextColBatch", numSplits), readSplits(t, f, splits, true), rows)
	}
}

func TestNoTrailingNewlineAndEmptyFile(t *testing.T) {
	want := []row.Row{
		{row.Int(1), row.Float(2.5), row.String_("a"), row.Bool(true)},
		{row.Int(2), row.NullOf(row.TypeFloat), row.String_(""), row.Bool(false)},
	}
	f := rawTable(t, 8, "1,2.5,a,true\n2,,\"\",false")
	for _, numSplits := range []int{0, 1, 3} {
		splits, err := f.Splits(numSplits)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, "no trailing newline: Next", readSplits(t, f, splits, false), want)
		sameRows(t, "no trailing newline: NextColBatch", readSplits(t, f, splits, true), want)
	}

	empty := rawTable(t, 8, "")
	splits, err := empty.Splits(0)
	if err != nil || len(splits) != 0 {
		t.Fatalf("empty file: splits = %v, err = %v", splits, err)
	}
	// A reader over the empty range ends at once on both faces.
	rr, err := empty.Open(&FileSplit{Path: "/raw"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n, ok, err := rr.NextColBatch(row.NewColBatch(nil)); n != 0 || ok || err != nil {
		t.Errorf("empty file: NextColBatch = %d, %v, %v", n, ok, err)
	}
	if _, ok, err := rr.Next(); ok || err != nil {
		t.Errorf("empty file: Next = %v, %v", ok, err)
	}
	if err := rr.Close(); err != nil {
		t.Error(err)
	}
}

// failAfter lets the first n replica reads through and fails every one
// after — a datanode outage that starts while a split is being read.
type failAfter struct{ n int }

func (h *failAfter) BlockRead(nodeID int, blockID int64) error {
	if h.n--; h.n < 0 {
		return fmt.Errorf("injected: node %d cannot serve block %d", nodeID, blockID)
	}
	return nil
}

func (h *failAfter) BlockWrite(int, int64) error { return nil }

func TestBlockReadFailureMidSplitSurfaces(t *testing.T) {
	topo := cluster.NewTopology(3)
	fs := dfs.New(topo, dfs.Config{BlockSize: 64, Replication: 2})
	rows := scanRows(200, rand.New(rand.NewSource(5)))
	if _, err := WriteTextTable(fs, "/t", scanSchema(), rows, topo.Node(0)); err != nil {
		t.Fatal(err)
	}
	f := NewTextTableFormat(fs, "/t", scanSchema())
	splits, err := f.Splits(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, columnar := range []bool{true, false} {
		fs.SetFaultHook(&failAfter{n: 3}) // three blocks in, every replica of the fourth fails
		rr, err := f.Open(splits[0], topo.Node(1))
		if err != nil {
			t.Fatal(err)
		}
		for served := 0; err == nil; served++ {
			ok := false
			if columnar {
				_, ok, err = rr.NextColBatch(row.NewColBatch(nil))
			} else {
				_, ok, err = rr.Next()
			}
			if err == nil && (!ok || served > len(rows)) {
				t.Fatalf("columnar=%v: split ended cleanly under a failing datanode", columnar)
			}
		}
		if !strings.Contains(err.Error(), "injected") {
			t.Errorf("columnar=%v: error does not carry the datanode's: %v", columnar, err)
		}
		if err := errors.Join(rr.Close(), rr.Close()); err != nil {
			t.Errorf("columnar=%v: Close after a failed read: %v", columnar, err)
		}
		fs.SetFaultHook(nil)
	}
}

// A malformed value is reported with where it is: the DFS path, the split,
// the byte offset of the line's start in the file, and the column.
func TestParseErrorsSayWhere(t *testing.T) {
	good := "1,2.5,a,true\n"
	data := strings.Repeat(good, 4) + "5,oops,b,true\n" + good
	f := rawTable(t, int64(3*len(good))+1, data) // two blocks; the bad line starts in the second
	splits, err := f.Splits(0)
	if err != nil || len(splits) != 2 {
		t.Fatalf("splits = %v, err = %v", splits, err)
	}
	for _, columnar := range []bool{true, false} {
		rr, err := f.Open(splits[1], nil)
		if err != nil {
			t.Fatal(err)
		}
		for err == nil {
			ok := false
			if columnar {
				_, ok, err = rr.NextColBatch(row.NewColBatch(nil))
			} else {
				_, ok, err = rr.Next()
			}
			if err == nil && !ok {
				t.Fatalf("columnar=%v: the second split read clean", columnar)
			}
		}
		for _, want := range []string{"/raw", splits[1].String(), fmt.Sprintf("byte %d", 4*len(good)), `"amount"`, "oops"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("columnar=%v: error %q does not name %q", columnar, err, want)
			}
		}
		if err := rr.Close(); err != nil {
			t.Error(err)
		}
	}
}

// Both faces decode through DecodeLineInto, so a malformed line fails the
// same way on each, down to the error text.
func TestFacesFailAlike(t *testing.T) {
	for _, bad := range []string{
		"5,2.5,b",              // too few fields
		"5,2.5,b,true,extra",   // too many
		"5,oops,b,true",        // a bad DOUBLE
		`5,2.5,"b,true`,        // unterminated quote
		`5,2.5,"b\t",true`,     // bad escape
		"5,2.5,b,maybe",        // not a BOOLEAN spelling
		"99999999999999999999", // one overflowing field
	} {
		f := rawTable(t, 1<<10, "1,2.5,a,true\n"+bad+"\n")
		var errs [2]error
		for i, columnar := range []bool{true, false} {
			rr, err := f.Open(&FileSplit{Path: "/raw", Len: 1 << 10}, nil)
			if err != nil {
				t.Fatal(err)
			}
			for err == nil {
				ok := false
				if columnar {
					_, ok, err = rr.NextColBatch(row.NewColBatch(nil))
				} else {
					_, ok, err = rr.Next()
				}
				if err == nil && !ok {
					t.Fatalf("%q: columnar=%v read clean", bad, columnar)
				}
			}
			errs[i] = err
			if err := rr.Close(); err != nil {
				t.Error(err)
			}
		}
		if errs[0].Error() != errs[1].Error() {
			t.Errorf("%q: NextColBatch err %q, Next err %q", bad, errs[0], errs[1])
		}
	}
}
