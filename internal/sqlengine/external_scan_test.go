package sqlengine

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"sqlml/internal/cluster"
	"sqlml/internal/dfs"
	"sqlml/internal/hadoopfmt"
	"sqlml/internal/row"
)

// The external mode of the property suites. reference_test.go and
// parallel_test.go hold the engine to the reference evaluator and to its
// own P=1 run over managed tables only; here the same kind of NULL-heavy random tables are also written to the
// DFS as text — 256-byte blocks, so every split straddles a line and the
// occasional long string leaves splits that own no line start — and
// scanned as external tables. The columnar text scan and the operators
// over it must change nothing: every query
// answers as it does over the managed copy, at every Parallelism.

// oracleStrings exercises the text format's quoting: separators, quotes,
// backslashes and newlines inside values, the empty string (distinct from
// NULL), and one value longer than two DFS blocks.
var oracleStrings = []string{"a", "b", "c", "dd", "", "x,y", `q"t`, `back\slash`, "line\nbreak", `"`, strings.Repeat("long", 150)}

func oracleRows(rng *rand.Rand, nl, nr int) (left, right []row.Row) {
	maybeNull := func(v row.Value) row.Value {
		if rng.Intn(4) == 0 {
			return row.NullOf(v.Kind)
		}
		return v
	}
	for i := 0; i < nl; i++ {
		left = append(left, row.Row{
			maybeNull(row.Int(int64(rng.Intn(8)))),
			maybeNull(row.Int(int64(rng.Intn(100) - 50))),
			maybeNull(row.Float(rng.Float64()*100 - 50)),
			maybeNull(row.String_(oracleStrings[rng.Intn(len(oracleStrings))])),
		})
	}
	for i := 0; i < nr; i++ {
		right = append(right, row.Row{
			maybeNull(row.Int(int64(rng.Intn(8)))),
			maybeNull(row.Float(rng.Float64() * 10)),
		})
	}
	return left, right
}

// oracleEngine loads the two tables as t and u, managed or as DFS text.
func oracleEngine(t testing.TB, workers int, left, right []row.Row, external bool, cfg Config) *Engine {
	t.Helper()
	topo := cluster.NewTopology(workers + 1)
	cfg.HeadNodeID = 0
	for i := 1; i <= workers; i++ {
		cfg.WorkerNodeIDs = append(cfg.WorkerNodeIDs, i)
	}
	e, err := New(topo, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lschema := row.MustSchema(
		row.Column{Name: "k", Type: row.TypeInt},
		row.Column{Name: "v", Type: row.TypeInt},
		row.Column{Name: "f", Type: row.TypeFloat},
		row.Column{Name: "cat", Type: row.TypeString},
	)
	rschema := row.MustSchema(
		row.Column{Name: "k", Type: row.TypeInt},
		row.Column{Name: "w", Type: row.TypeFloat},
	)
	fsys := dfs.New(topo, dfs.Config{BlockSize: 256, Replication: 2})
	for _, tb := range []struct {
		name   string
		schema row.Schema
		rows   []row.Row
	}{{"t", lschema, left}, {"u", rschema, right}} {
		if !external {
			err = e.LoadTable(tb.name, tb.schema, tb.rows)
		} else if _, err = hadoopfmt.WriteTextTable(fsys, "/w/"+tb.name, tb.schema, tb.rows, topo.Node(1)); err == nil {
			err = e.RegisterExternalTable(tb.name, fsys, "/w/"+tb.name, tb.schema)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// partitionDependent lists the corpus queries whose answer legitimately
// depends on how rows fall into partitions (float addition order, LIMIT
// over ties or over no order at all). A managed table deals rows round
// robin and an external one by split, so these are compared exactly only
// between external runs, and against the reference evaluator within
// what the partitioning leaves open.
var partitionDependent = map[string]bool{
	"SELECT k, AVG(f), COUNT(*) FROM t WHERE v IS NOT NULL GROUP BY k": true,
	"SELECT cat, SUM(f), AVG(f) FROM t GROUP BY cat":                   true,
	"SELECT SUM(f), MIN(v), MAX(f) FROM t":                             true,
	"SELECT k, v FROM t ORDER BY k LIMIT 13":                           true,
	"SELECT v FROM t LIMIT 7":                                          true,
}

func sortedCopy(rows []string) []string {
	out := append([]string(nil), rows...)
	sort.Strings(out)
	return out
}

func TestPropertyExternalScanMatchesManaged(t *testing.T) {
	queries := append([]string{"SELECT * FROM t", "SELECT cat FROM t WHERE cat = ''", "SELECT u.w, t.cat, t.f FROM u, t WHERE t.k = u.k"}, oracleCorpus()...)
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		workers := 1 + rng.Intn(4)
		left, right := oracleRows(rng, rng.Intn(120), rng.Intn(30))
		managed := oracleEngine(t, workers, left, right, false, Config{Parallelism: 1})
		base := oracleEngine(t, workers, left, right, true, Config{Parallelism: 1})
		for _, par := range []int{1, 2, 4} {
			ext := oracleEngine(t, workers, left, right, true, Config{Parallelism: par})
			for _, sql := range queries {
				where := fmt.Sprintf("seed %d workers %d P=%d: %s", seed, workers, par, sql)
				res, err := ext.Query(sql)
				// Parallelism oracle: the exact sequence of the P=1 run.
				seq, serr := runOracle(base, sql)
				if _, merr := runOracle(managed, sql); (err != nil) != (merr != nil) || (err != nil) != (serr != nil) {
					t.Fatalf("%s: err = %v, at P=1 %v, managed %v", where, err, serr, merr)
				}
				if err != nil {
					continue // a query the engine rejects, wherever the table lives
				}
				gotRows := res.Rows()
				got := rowStrings(gotRows)
				if fmt.Sprint(got) != fmt.Sprint(seq) {
					t.Fatalf("%s:\n P=1: %v\n P=%d: %v", where, seq, par, got)
				}
				if !partitionDependent[sql] {
					// Storage oracle: the same rows as the managed copy.
					want, err := runOracle(managed, sql)
					if err != nil {
						t.Fatalf("%s: managed: %v", where, err)
					}
					if fmt.Sprint(sortedCopy(got)) != fmt.Sprint(sortedCopy(want)) {
						t.Fatalf("%s:\n managed: %v\n external: %v", where, want, got)
					}
					continue
				}
				sel, err := ParseSelect(sql)
				if err != nil {
					t.Fatal(err)
				}
				if sel.Limit < 0 {
					// Float aggregates: the reference's values, within tolerance.
					want, err := referenceQuery(managed, sql)
					if err != nil {
						t.Fatalf("%s: reference: %v", where, err)
					}
					if d := diffResults(sql, gotRows, want); d != "" {
						t.Fatalf("%s: %s", where, d)
					}
					continue
				}
				// LIMIT over ties: as many rows as the limit allows, each one
				// drawn from the reference's un-limited answer.
				all, err := referenceQuery(managed, strings.Split(sql, " LIMIT ")[0])
				if err != nil {
					t.Fatalf("%s: reference: %v", where, err)
				}
				if n := min(sel.Limit, len(all)); len(got) != n {
					t.Fatalf("%s: %d rows, want %d", where, len(got), n)
				}
				pool := make(map[string]int)
				for _, s := range rowStrings(all) {
					pool[s]++
				}
				for _, s := range got {
					if pool[s]--; pool[s] < 0 {
						t.Fatalf("%s: row %s is not in the reference's un-limited answer %v", where, s, rowStrings(all))
					}
				}
			}
		}
	}
}

// TestExternalProbeRowsOwnTheirStrings is the residency test behind the
// probe's gather: its output batch must own the VARCHAR payloads it copied
// from the scan, not view the scan's slab. The probe side is an external
// text table with a VARCHAR column, large enough that the scan refills its
// one pooled batch several times. After every NextCol the test overwrites
// the scan's batch — what the scan's next refill would do — and then reads
// the gathered strings. The probe is wired by hand, as openJoin wires it
// straight over the scan, because every plan the engine builds
// today happens to put a copying projection downstream in the same pull —
// which is exactly why a gather that handed out views of the slab would go
// unnoticed until a plan does not.
func TestExternalProbeRowsOwnTheirStrings(t *testing.T) {
	const n = 3*DefaultBatchSize + 100 // four scan batches from the one split
	topo := cluster.NewTopology(2)
	e, err := New(topo, nil, Config{HeadNodeID: 0, WorkerNodeIDs: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	name := func(i int) string { return fmt.Sprintf("name-%d-%s", i, strings.Repeat("z", i%7)) }
	fact := make([]row.Row, n)
	for i := range fact {
		fact[i] = row.Row{row.Int(int64(i % 3)), row.Int(int64(i)), row.String_(name(i))}
	}
	fschema := row.MustSchema(
		row.Column{Name: "k", Type: row.TypeInt},
		row.Column{Name: "id", Type: row.TypeInt},
		row.Column{Name: "name", Type: row.TypeString},
	)
	fsys := dfs.New(topo, dfs.Config{BlockSize: 1 << 20, Replication: 1})
	if _, err := hadoopfmt.WriteTextTable(fsys, "/w/fact", fschema, fact, topo.Node(1)); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterExternalTable("fact", fsys, "/w/fact", fschema); err != nil {
		t.Fatal(err)
	}
	tbl, err := e.Catalog().Get("fact")
	if err != nil {
		t.Fatal(err)
	}
	iters, err := e.scanTable(tbl)
	if err != nil {
		t.Fatal(err)
	}
	scan := iters[0]

	// Build side: k in 0..2.
	var build []row.Row
	for k := int64(0); k < 3; k++ {
		build = append(build, row.Row{row.Int(k), row.String_(fmt.Sprint("tag", k))})
	}
	bt := buildRows(t, []row.Type{row.TypeInt, row.TypeString}, build, firstColKey)
	fschemaTypes := row.SchemaTypes(fschema)
	probe := &colProbeIter{
		in:     scan,
		keyFns: []vecFn{firstColKey},
		build:  bt,
		types:  append(fschemaTypes, row.TypeInt, row.TypeString),

		probeCols: identityCols(len(fschemaTypes)), buildCols: identityCols(2),
	}
	defer probe.Close()
	poison := row.Row{row.Int(-1), row.Int(-1), row.String_(strings.Repeat("#", 32))}
	seen := 0
	for {
		out, ok, err := probe.NextCol()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if probe.cur == nil { // the probe is done with the scan's batch
			sb := scan.(*externalScan).buf
			sb.Reset(fschemaTypes)
			for i := 0; i < DefaultBatchSize; i++ {
				sb.AppendRow(poison)
			}
		}
		for si := 0; si < out.Len(); si++ {
			p := out.SelPos(si)
			id := out.Col(1).Ints[p]
			if got, want := out.Col(2).StringAt(p), name(int(id)); id != int64(seen) || got != want {
				t.Fatalf("output row %d reads (id %d, name %q) after the scan batch was overwritten, want (id %d, name %q)", seen, id, got, seen, name(seen))
			}
			if tag := out.Col(4).StringAt(p); tag != fmt.Sprint("tag", id%3) {
				t.Fatalf("output row %d: build tag %q, want %q", seen, tag, fmt.Sprint("tag", id%3))
			}
			seen++
		}
	}
	if seen != n {
		t.Fatalf("joined %d rows, want %d", seen, n)
	}
}

// rowBytes is the row-side estimate of a row's wire size that the
// engine's columnar colBatchBytes is held to.
func rowBytes(r row.Row) int {
	n := 4 // frame overhead
	for _, v := range r {
		switch v.Kind {
		case row.TypeString:
			if !v.Null {
				n += 5 + len(v.AsString())
			} else {
				n += 1
			}
		case row.TypeBool:
			n += 2
		default:
			n += 9
		}
	}
	return n
}

// partBytes is the row-side reference for the engine's cost charges:
// rowBytes summed over a partition's rows.
func partBytes(p []row.Row) int {
	n := 0
	for _, r := range p {
		n += rowBytes(r)
	}
	return n
}

// TestColBatchBytesMatchesPartBytes pins the columnar cost walk to the
// row one — colBatchBytes(b) is partBytes of b's live rows — on both of
// its paths: the dense one (no selection, no NULLs: slab length) and the
// per-cell one, with and without selection vectors and NULLs.
func TestColBatchBytesMatchesPartBytes(t *testing.T) {
	types := []row.Type{row.TypeString, row.TypeInt, row.TypeBool, row.TypeString, row.TypeFloat}
	rng := rand.New(rand.NewSource(8))
	for iter := 0; iter < 400; iter++ {
		withNulls, withSel := iter&1 != 0, iter&2 != 0
		b := row.NewColBatch(types)
		for i, n := 0, rng.Intn(70); i < n; i++ {
			r := row.Row{
				row.String_(strings.Repeat("s", rng.Intn(9))), row.Int(rng.Int63()), row.Bool(i%2 == 0),
				row.String_(strings.Repeat("é", rng.Intn(4))), row.Float(rng.Float64()),
			}
			for c := range r {
				if withNulls && rng.Intn(3) == 0 {
					r[c] = row.NullOf(types[c])
				}
			}
			b.AppendRow(r)
		}
		if withSel {
			sel := []int32{}
			for p := 0; p < b.FullLen(); p++ {
				if rng.Intn(2) == 0 {
					sel = append(sel, int32(p))
				}
			}
			b.SetSel(sel)
		}
		if got, want := colBatchBytes(b), partBytes(b.Rows(nil)); got != want {
			t.Fatalf("nulls=%v sel=%v rows=%d/%d: colBatchBytes = %d, partBytes of the live rows = %d",
				withNulls, withSel, b.Len(), b.FullLen(), got, want)
		}
	}
}
