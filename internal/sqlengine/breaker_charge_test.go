package sqlengine

import (
	"fmt"
	"math/rand"
	"testing"

	"sqlml/internal/cluster"
	"sqlml/internal/dfs"
	"sqlml/internal/row"
)

// TestBreakerChargesAndPlacement pins what the breakers charge the cost
// model and where they leave rows, against figures computed from the input
// rows alone: DISTINCT's head merge charges the row bytes of each
// partition's first-instance rows, moved to the head, ORDER BY charges
// every row it gathers to the head, and a global table UDF's output row i
// lands on worker i mod n.
func TestBreakerChargesAndPlacement(t *testing.T) {
	const n = 3
	topo := cluster.NewTopology(n + 1)
	cost := &cluster.CostModel{NetBps: 1e9}
	e, err := New(topo, cost, Config{HeadNodeID: 0, WorkerNodeIDs: []int{1, 2, 3}, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	schema := row.MustSchema(row.Column{Name: "k", Type: row.TypeInt}, row.Column{Name: "cat", Type: row.TypeString})
	rng := rand.New(rand.NewSource(5))
	cats := []row.Value{row.String_("a"), row.String_("bb"), row.String_(""), row.NullOf(row.TypeString)}
	var rows []row.Row
	parts := make([][]row.Row, n) // LoadTable deals rows round robin
	for i := range 200 {
		k := row.Int(int64(rng.Intn(6)))
		if rng.Intn(5) == 0 {
			k = row.NullOf(row.TypeInt)
		}
		r := row.Row{k, cats[rng.Intn(len(cats))]}
		rows = append(rows, r)
		parts[i%n] = append(parts[i%n], r)
	}
	if err := e.LoadTable("t", schema, rows); err != nil {
		t.Fatal(err)
	}

	// DISTINCT: each partition's first instances, merged at the head.
	want := 0
	for _, p := range parts {
		seen := make(map[string]bool)
		for _, r := range p {
			key := row.AppendKey(nil, r)
			if seen[string(key)] {
				continue
			}
			seen[string(key)] = true
			want += rowBytes(r)
		}
	}
	cost.ResetStats()
	if _, err := e.Query("SELECT DISTINCT k, cat FROM t"); err != nil {
		t.Fatal(err)
	}
	if got := cost.Stats().NetBytes; got != int64(want) {
		t.Errorf("DISTINCT merge charged %d net bytes, partitions' first-instance rows = %d", got, want)
	}

	// ORDER BY: every partition moves to the head.
	cost.ResetStats()
	if _, err := e.Query("SELECT k, cat FROM t ORDER BY k"); err != nil {
		t.Fatal(err)
	}
	if got, want := cost.Stats().NetBytes, int64(partBytes(rows)); got != want {
		t.Errorf("ORDER BY charged %d net bytes, partBytes of the input = %d", got, want)
	}

	// A global UDF emitting each input batch narrowed to the positions p
	// with p%3 != 1: its output, in partition order, is scattered round
	// robin.
	err = e.Registry().RegisterTable(&TableUDF{
		Name:      "every_other",
		OutSchema: func(in row.Schema, _ []row.Value) (row.Schema, error) { return in, nil },
		Fn: func(_ *UDFContext, in ColBatchSource, _ []row.Value, emit func(*row.ColBatch) error) error {
			for {
				b, ok, err := in.NextCol()
				if err != nil || !ok {
					return err
				}
				var sel []int32
				for p := range b.FullLen() {
					if p%3 != 1 {
						sel = append(sel, int32(p))
					}
				}
				b.SetSel(sel)
				if err := emit(b); err != nil {
					return err
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Query("SELECT k, cat FROM TABLE(every_other(t))")
	if err != nil {
		t.Fatal(err)
	}
	wantParts := make([][]row.Row, n)
	i := 0
	for _, p := range parts {
		for pos, r := range p { // one chunk per partition at this size
			if pos%3 != 1 {
				wantParts[i%n] = append(wantParts[i%n], r)
				i++
			}
		}
	}
	got, err := res.Parts()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(wantParts) {
		t.Errorf("global UDF output partitions\n got %v\nwant %v", got, wantParts)
	}
}

// TestExportToDFSChargesLiveRowBytes pins ExportToDFS's processing charge:
// one pass over every batch it writes, colBatchBytes of the batch's live
// rows, so the whole export charges partBytes of the exported rows. The
// streaming case writes filter batches that carry a selection vector and
// NULL VARCHARs; no scan or filter charges processing of its own.
func TestExportToDFSChargesLiveRowBytes(t *testing.T) {
	topo := cluster.NewTopology(4)
	cost := &cluster.CostModel{ProcBps: 1e9}
	e, err := New(topo, cost, Config{HeadNodeID: 0, WorkerNodeIDs: []int{1, 2, 3}, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	fsys := dfs.New(topo, dfs.Config{BlockSize: 1 << 16, Replication: 1})
	schema := row.MustSchema(row.Column{Name: "k", Type: row.TypeInt}, row.Column{Name: "cat", Type: row.TypeString})
	cats := []row.Value{row.String_("a"), row.String_("bb"), row.String_(""), row.NullOf(row.TypeString)}
	var rows []row.Row
	for i := range 3*DefaultBatchSize + 7 {
		rows = append(rows, row.Row{row.Int(int64(i % 5)), cats[i%len(cats)]})
	}
	if err := e.LoadTable("t", schema, rows); err != nil {
		t.Fatal(err)
	}
	for i, sql := range []string{"SELECT k, cat FROM t", "SELECT k, cat FROM t WHERE k > 1"} {
		ref, err := e.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.QueryStream(sql)
		if err != nil {
			t.Fatal(err)
		}
		cost.ResetStats()
		if err := e.ExportToDFS(res, fsys, fmt.Sprintf("/out/%d", i)); err != nil {
			t.Fatal(err)
		}
		if got, want := cost.Stats().ProcBytes, int64(partBytes(ref.Rows())); got != want {
			t.Errorf("%s: export charged %d processing bytes, partBytes of the rows = %d", sql, got, want)
		}
	}
}

// TestAggregateMergeChargesPartialGroups pins the head merge's charge
// against figures from the input rows alone: every partition that holds
// rows moves its partial to the head, at the row bytes of each distinct
// group key plus 24 bytes per aggregate per group.
func TestAggregateMergeChargesPartialGroups(t *testing.T) {
	const n = 3
	topo := cluster.NewTopology(n + 1)
	cost := &cluster.CostModel{NetBps: 1e9}
	e, err := New(topo, cost, Config{HeadNodeID: 0, WorkerNodeIDs: []int{1, 2, 3}, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	schema := row.MustSchema(row.Column{Name: "k", Type: row.TypeInt}, row.Column{Name: "cat", Type: row.TypeString},
		row.Column{Name: "v", Type: row.TypeFloat})
	rng := rand.New(rand.NewSource(9))
	cats := []row.Value{row.String_("a"), row.String_("bb"), row.String_(""), row.NullOf(row.TypeString)}
	parts := make([][]row.Row, n)
	for i := range 3000 {
		k := row.Int(int64(rng.Intn(900)))
		if rng.Intn(7) == 0 {
			k = row.NullOf(row.TypeInt)
		}
		parts[i%n] = append(parts[i%n], row.Row{k, cats[rng.Intn(len(cats))], row.Float(rng.Float64())})
	}
	parts[2] = nil // an empty partition moves nothing
	if err := e.LoadPartitionedTable("t", schema, parts); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		sql  string
		key  func(r row.Row) row.Row
		aggs int
	}{
		{"SELECT cat, k, COUNT(*), MAX(v) FROM t GROUP BY k, cat", func(r row.Row) row.Row { return r[:2] }, 2},
		{"SELECT cat, MIN(k), AVG(v), SUM(k) FROM t GROUP BY cat", func(r row.Row) row.Row { return r[1:2] }, 3},
		{"SELECT COUNT(*), SUM(v) FROM t", func(row.Row) row.Row { return nil }, 2},
	} {
		want := 0
		for _, p := range parts {
			seen := make(map[string]bool)
			for _, r := range p {
				key := c.key(r)
				if enc := string(row.AppendKey(nil, key)); !seen[enc] {
					seen[enc] = true
					want += rowBytes(key) + 24*c.aggs
				}
			}
		}
		cost.ResetStats()
		if _, err := e.Query(c.sql); err != nil {
			t.Fatal(err)
		}
		if got := cost.Stats().NetBytes; got != int64(want) {
			t.Errorf("%s: merge charged %d net bytes, partial groups' key bytes + 24 per aggregate = %d", c.sql, got, want)
		}
	}
}
