package transform

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"sqlml/internal/row"
	"sqlml/internal/sqlengine"
)

// distinctPairs runs phase 1's local step over table in the engine and
// returns the (colname, colval) pairs it emits, as a sorted set.
func distinctPairs(t *testing.T, e *sqlengine.Engine, table string) []string {
	t.Helper()
	res, err := e.Query(fmt.Sprintf("SELECT DISTINCT colname, colval FROM TABLE(distinct_values(%s, 'a,b'))", table))
	if err != nil {
		t.Fatal(err)
	}
	return pairSet(res.Rows())
}

// batchPairs runs distinct_values' function over hand-built batches of
// rows. Every batch puts a decoy row ahead of each real one and selects
// only the real ones, so a function that ignores the selection vector
// emits the decoy's pairs.
func batchPairs(t *testing.T, schema row.Schema, rows []row.Row) []string {
	t.Helper()
	types := row.SchemaTypes(schema)
	decoy := row.Row{row.Int(-1), row.String_("decoy"), row.String_("decoy")}
	var in batchList
	for len(rows) > 0 {
		n := min(len(rows), sqlengine.DefaultBatchSize/2)
		b := row.NewColBatch(types)
		sel := make([]int32, 0, n)
		for _, r := range rows[:n] {
			b.AppendRow(decoy)
			sel = append(sel, int32(b.FullLen()))
			b.AppendRow(r)
		}
		b.SetSel(sel)
		in = append(in, b)
		rows = rows[n:]
	}
	var out []row.Row
	ctx := &sqlengine.UDFContext{InSchema: schema}
	emit := func(b *row.ColBatch) error { out = b.Rows(out); return nil }
	if err := distinctValuesUDF().Fn(ctx, &in, []row.Value{row.String_("a,b")}, emit); err != nil {
		t.Fatal(err)
	}
	return pairSet(out)
}

// batchList is a ColBatchSource over batches in hand.
type batchList []*row.ColBatch

func (l *batchList) NextCol() (*row.ColBatch, bool, error) {
	if len(*l) == 0 {
		return nil, false, nil
	}
	b := (*l)[0]
	*l = (*l)[1:]
	return b, true, nil
}

func (l *batchList) Close() { *l = nil }

func pairSet(rows []row.Row) []string {
	seen := make(map[string]bool)
	for _, r := range rows {
		seen[r.String()] = true
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// TestDistinctValuesMatchesDirectPairs: distinct_values emits exactly the
// (colname, colval) pairs computed directly from the rows, whether it reads
// a managed table's chunks, a streaming filter over them, or hand-built
// batches — the last two carry a live selection vector. NULLs are not
// levels; the empty string is one.
func TestDistinctValuesMatchesDirectPairs(t *testing.T) {
	e := newEngine(t)
	schema := row.MustSchema(
		row.Column{Name: "n", Type: row.TypeInt},
		row.Column{Name: "a", Type: row.TypeString},
		row.Column{Name: "b", Type: row.TypeString},
	)
	var rows, kept []row.Row
	for i := 0; i < 3*sqlengine.DefaultBatchSize; i++ {
		a := row.String_(fmt.Sprintf("a%d", i%37))
		b := row.String_(strings.Repeat("b", i%5))
		if i%7 == 0 {
			a = row.NullOf(row.TypeString)
		}
		if i%11 == 0 {
			b = row.NullOf(row.TypeString)
		}
		r := row.Row{row.Int(int64(i)), a, b}
		rows = append(rows, r)
		if i > 40 && !a.Null && i%37 != 5 { // the WHERE below
			kept = append(kept, r)
		}
	}
	if err := e.LoadTable("p", schema, rows); err != nil {
		t.Fatal(err)
	}
	res, err := e.QueryStream("SELECT * FROM p WHERE n > 40 AND a <> 'a5'")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterResultStream("p_filtered", res); err != nil {
		t.Fatal(err)
	}
	direct := func(rows []row.Row) []string {
		var out []row.Row
		for _, r := range rows {
			for i, name := range []string{"a", "b"} {
				if v := r[1+i]; !v.Null {
					out = append(out, row.Row{row.String_(name), v})
				}
			}
		}
		return pairSet(out)
	}
	all, filtered := direct(rows), direct(kept)
	if len(filtered) == len(all) {
		t.Fatal("the filter removes no pair; it cannot tell a live selection from none")
	}
	for _, c := range []struct {
		what      string
		got, want []string
	}{
		{"engine over p", distinctPairs(t, e, "p"), all},
		{"hand-built batches of p", batchPairs(t, schema, rows), all},
		{"engine over a filter of p", distinctPairs(t, e, "p_filtered"), filtered},
		{"hand-built batches of the filtered rows", batchPairs(t, schema, kept), filtered},
	} {
		if strings.Join(c.got, ";") != strings.Join(c.want, ";") {
			t.Errorf("%s:\n got  %v\n want %v", c.what, c.got, c.want)
		}
	}
}
