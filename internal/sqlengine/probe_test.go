package sqlengine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"sqlml/internal/cluster"
	"sqlml/internal/row"
)

// The keyed hash probe's edges: a bucket larger than two output batches,
// many-to-many matches, chained probes over a managed table (the In-SQL
// recode join's shape), NULL keys and cells, and a probe-side selection.
// Every query is held to referenceQuery at Parallelism 1, 2 and 4.

// probeStrings mixes short, empty and quoted strings so the gather copies
// payloads of every length.
var probeStrings = []string{"a", "", "x,y", `q"t`, strings.Repeat("long", 20)}

// fanOutRows builds t and u for the probe tests: u holds 2 500 rows of key
// 7 (one bucket, more than two output batches per matching probe row) and
// 30 rows over keys 0..2 that match t's many-to-many; a quarter of every
// other cell is NULL, and some keys on both sides are NULL.
func fanOutRows() (left, right []row.Row) {
	rng := rand.New(rand.NewSource(29))
	maybeNull := func(v row.Value) row.Value {
		if rng.Intn(4) == 0 {
			return row.NullOf(v.Kind)
		}
		return v
	}
	for i := 0; i < 60; i++ {
		k := row.Int(int64(i % 3))
		switch {
		case i == 4 || i == 41:
			k = row.Int(7)
		case i%11 == 0:
			k = row.NullOf(row.TypeInt)
		}
		left = append(left, row.Row{
			k,
			maybeNull(row.Int(int64(rng.Intn(10)))),
			maybeNull(row.Float(rng.Float64())),
			maybeNull(row.String_(probeStrings[rng.Intn(len(probeStrings))])),
		})
	}
	for i := 0; i < 2500; i++ {
		right = append(right, row.Row{row.Int(7), maybeNull(row.Float(float64(i)))})
	}
	for i := 0; i < 30; i++ {
		k := row.Int(int64(i % 3))
		if i%7 == 0 {
			k = row.NullOf(row.TypeInt)
		}
		right = append(right, row.Row{k, maybeNull(row.Float(float64(-i)))})
	}
	return left, right
}

// probeQueries covers the fan-out bucket, a build side with VARCHAR cells
// (the self-join), and a probe side narrowed by a pushed-down filter.
var probeQueries = []string{
	"SELECT t.v, t.cat, u.w FROM t, u WHERE t.k = u.k",
	"SELECT * FROM t, u WHERE u.k = t.k",
	"SELECT a.v, a.cat, b.cat, b.f FROM t a, t b WHERE a.k = b.k",
	"SELECT t.cat, u.w FROM t, u WHERE t.k = u.k AND t.v > 4",
	"SELECT t.k, COUNT(*), SUM(u.w) FROM t, u WHERE t.k = u.k GROUP BY t.k",
}

// TestProbeFanOutMatchesReference runs the probe queries over managed
// tables, where the answer must equal the reference's as an exact
// sequence, and over DFS text, where it must equal it as a multiset.
func TestProbeFanOutMatchesReference(t *testing.T) {
	left, right := fanOutRows()
	for _, workers := range []int{1, 3} {
		ref := oracleEngine(t, workers, left, right, false, Config{Parallelism: 1})
		wants := make(map[string][]row.Row)
		for _, sql := range probeQueries {
			want, err := referenceQuery(ref, sql)
			if err != nil {
				t.Fatalf("workers %d: %s: reference: %v", workers, sql, err)
			}
			wants[sql] = want
		}
		for _, par := range []int{1, 2, 4} {
			for _, external := range []bool{false, true} {
				e := oracleEngine(t, workers, left, right, external, Config{Parallelism: par})
				for _, sql := range probeQueries {
					where := fmt.Sprintf("workers %d P=%d external=%v: %s", workers, par, external, sql)
					want := wants[sql]
					res, err := e.Query(sql)
					if err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					got := res.Rows()
					if external || strings.Contains(sql, "GROUP BY") {
						if d := diffResults(sql, got, want); d != "" {
							t.Fatalf("%s: %s", where, d)
						}
						continue
					}
					if g, w := fmt.Sprint(rowStrings(got)), fmt.Sprint(rowStrings(want)); g != w {
						t.Fatalf("%s: %d rows, reference %d, sequences differ", where, len(got), len(want))
					}
				}
			}
		}
	}
}

// TestProbeFanOutSpansBatches pins the overflow path itself: the two key-7
// probe rows produce 5 000 matches, which must leave the probe as batches
// of at most DefaultBatchSize rows, in build order, resuming mid-bucket.
func TestProbeFanOutSpansBatches(t *testing.T) {
	left, right := fanOutRows()
	e := oracleEngine(t, 1, left, right, false, Config{Parallelism: 2})
	res, err := e.QueryStream("SELECT t.v, u.w FROM t, u WHERE t.k = u.k AND t.k = 7")
	if err != nil {
		t.Fatal(err)
	}
	iters, err := res.Batches()
	if err != nil {
		t.Fatal(err)
	}
	var batches, rows int
	for _, it := range iters {
		for {
			b, ok, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if len(b) > DefaultBatchSize {
				t.Fatalf("batch of %d rows, want at most %d", len(b), DefaultBatchSize)
			}
			for i, r := range b {
				// u's key-7 rows are its first 2 500, w = their index.
				if w := r[1]; !w.Null && w.AsFloat() != float64((rows+i)%2500) {
					t.Fatalf("row %d: w = %v, want %d (build order broken across batches)", rows+i, w, (rows+i)%2500)
				}
			}
			batches++
			rows += len(b)
		}
		it.Close()
	}
	if rows != 5000 || batches < 5 {
		t.Fatalf("%d rows in %d batches, want 5000 rows in at least 5", rows, batches)
	}
}

// firstColKey is the key kernel of the hand-driven probes and builds:
// column 0.
func firstColKey(c *vecCtx, b *row.ColBatch, pos []int32) (*row.Vector, error) {
	return b.Col(0), nil
}

// identityCols is 0..n-1: a probe's probeCols or buildCols when its output
// keeps every column of that side.
func identityCols(n int) []int {
	cols := make([]int, n)
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// buildRows builds a hash table over rows as one build partition, the way
// joinTable builds over its drained chunks; no keyFns is the key-less
// (cartesian) build.
func buildRows(t *testing.T, types []row.Type, rows []row.Row, keyFns ...vecFn) *buildTable {
	t.Helper()
	bt, err := buildHashTable(newQueryPool(1), rowsToChunks(types, [][]row.Row{rows}), keyFns)
	if err != nil {
		t.Fatal(err)
	}
	return bt
}

// probeChain walks a partition pipeline down to its leaf, counting the
// join probes on the way.
func probeChain(it ColBatchSource) (probes int) {
	for {
		switch x := it.(type) {
		case *colProjectIter:
			it = x.in
		case *colFilterIter:
			it = x.in
		case *colProbeIter:
			probes++
			it = x.in
		default:
			return probes
		}
	}
}

// TestProbeChainedKeyedJoinsOverManagedTable runs the In-SQL recode join's
// shape — a managed table joined to two aliases of one map table, each
// alias filtered to one column — and requires both probes to run on
// columns (the first over transposed managed rows, the second over the
// first's output batches) and the answer to equal the reference's.
func TestProbeChainedKeyedJoinsOverManagedTable(t *testing.T) {
	tschema := row.MustSchema(
		row.Column{Name: "id", Type: row.TypeInt},
		row.Column{Name: "gender", Type: row.TypeString},
		row.Column{Name: "abandoned", Type: row.TypeString},
		row.Column{Name: "amount", Type: row.TypeFloat},
	)
	mschema := row.MustSchema(
		row.Column{Name: "colname", Type: row.TypeString},
		row.Column{Name: "colval", Type: row.TypeString},
		row.Column{Name: "recodeval", Type: row.TypeInt},
	)
	genders, labels := []string{"F", "M", "X"}, []string{"Yes", "No"}
	var trows []row.Row
	for i := 0; i < 3*DefaultBatchSize+17; i++ {
		g := row.String_(genders[i%3])
		if i%13 == 0 {
			g = row.NullOf(row.TypeString)
		}
		trows = append(trows, row.Row{row.Int(int64(i)), g, row.String_(labels[i%2]), row.Float(float64(i) / 4)})
	}
	// "X" has no map entry: those rows drop out of the inner join.
	mrows := []row.Row{
		{row.String_("gender"), row.String_("F"), row.Int(1)},
		{row.String_("gender"), row.String_("M"), row.Int(2)},
		{row.String_("abandoned"), row.String_("No"), row.Int(1)},
		{row.String_("abandoned"), row.String_("Yes"), row.Int(2)},
	}
	const sql = "SELECT __t.id AS id, __m1.recodeval AS gender, __m2.recodeval AS abandoned, __t.amount AS amount" +
		" FROM prep AS __t, rmap AS __m1, rmap AS __m2" +
		" WHERE __m1.colname = 'gender' AND __t.gender = __m1.colval AND __m2.colname = 'abandoned' AND __t.abandoned = __m2.colval"
	for _, par := range []int{1, 2, 4} {
		topo := cluster.NewTopology(4)
		e, err := New(topo, nil, Config{HeadNodeID: 0, WorkerNodeIDs: []int{1, 2, 3}, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.LoadTable("prep", tschema, trows); err != nil {
			t.Fatal(err)
		}
		if err := e.LoadTable("rmap", mschema, mrows); err != nil {
			t.Fatal(err)
		}
		res, err := e.QueryStream(sql)
		if err != nil {
			t.Fatal(err)
		}
		iters, err := res.sources()
		if err != nil {
			t.Fatal(err)
		}
		for i, it := range iters {
			if c := probeChain(it); c != 2 {
				t.Fatalf("P=%d partition %d: %d join probes, want 2", par, i, c)
			}
		}
		res.Close()

		want, err := referenceQuery(e, sql)
		if err != nil {
			t.Fatal(err)
		}
		res, err = e.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := fmt.Sprint(rowStrings(res.Rows())), fmt.Sprint(rowStrings(want)); g != w {
			t.Fatalf("P=%d: engine and reference differ:\n engine:    %.300s\n reference: %.300s", par, g, w)
		}
	}
}

// TestProbeNullKeysAndSelection drives the probe by hand over a producer
// that masks a poison row behind its selection vector, with NULL probe
// keys, a NULL build key and NULL build-side cells: NULL keys never match,
// masked rows are never probed, and NULL cells gather as NULL.
func TestProbeNullKeysAndSelection(t *testing.T) {
	null := row.NullOf(row.TypeInt)
	nullS := row.NullOf(row.TypeString)
	build := []row.Row{
		{row.Int(1), row.String_("one")},
		{row.Int(2), nullS},
		{null, row.String_("null-key")},
		{row.Int(1), row.String_("uno")},
	}
	types := []row.Type{row.TypeInt, row.TypeString}
	bt := buildRows(t, types, build, firstColKey)
	probeRows := []row.Row{
		{row.Int(1), row.String_("p1")},
		{null, row.String_("p-null")},
		{row.Int(2), nullS},
		{row.Int(3), row.String_("p3")},
		{row.Int(1), nullS},
	}
	want := []string{
		"(1, 'p1', 1, 'one')", "(1, 'p1', 1, 'uno')",
		"(2, NULL, 2, NULL)",
		"(1, NULL, 1, 'one')", "(1, NULL, 1, 'uno')",
	}
	for _, junk := range []bool{false, true} {
		p := &colProbeIter{
			in:     newRecyclingColBatches(types, probeRows, 2, junk),
			keyFns: []vecFn{firstColKey},
			build:  bt,
			types:  append(append([]row.Type(nil), types...), types...),

			probeCols: identityCols(len(types)), buildCols: identityCols(len(types)),
		}
		got, err := drainBatches(p)
		if err != nil {
			t.Fatal(err)
		}
		if g := fmt.Sprint(rowStrings(got)); g != fmt.Sprint(want) {
			t.Errorf("junk=%v:\n got  %s\n want %v", junk, g, want)
		}
	}
}

// TestProbeChargeMatchesRowProbe pins the probe's sim-ms charge: a keyed
// join over managed rows used to charge partBytes of each input batch in
// the row probe, and now charges colBatchBytes of the transposed batch.
// For NULL-heavy VARCHAR rows, with and without a selection, the bytes
// charged must equal partBytes of the live input rows, whatever matches.
func TestProbeChargeMatchesRowProbe(t *testing.T) {
	types := []row.Type{row.TypeInt, row.TypeString, row.TypeString, row.TypeFloat}
	rng := rand.New(rand.NewSource(12))
	node := cluster.NewTopology(1).Node(0)
	bt := buildRows(t, []row.Type{row.TypeInt}, intRows(1, 2), firstColKey)
	for iter := 0; iter < 200; iter++ {
		withSel := iter&1 != 0
		var rows []row.Row
		for i, n := 0, rng.Intn(3*DefaultBatchSize); i < n; i++ {
			r := row.Row{
				row.Int(int64(rng.Intn(4))), row.String_(strings.Repeat("s", rng.Intn(9))),
				row.String_(strings.Repeat("é", rng.Intn(4))), row.Float(rng.Float64()),
			}
			for c := range r {
				if rng.Intn(2) == 0 {
					r[c] = row.NullOf(types[c])
				}
			}
			rows = append(rows, r)
		}
		in := NewRowSource(rows, types)
		live := rows
		if withSel {
			// Keep the rows whose first VARCHAR is not NULL.
			in = newColFilterIter(in, func(c *vecCtx, b *row.ColBatch, pos []int32) (*row.Vector, error) {
				out := c.get()
				out.ResetDense(row.TypeBool, b.FullLen())
				for p := range out.Bools {
					out.Bools[p] = !b.Col(1).Null(p)
				}
				return out, nil
			})
			live = nil
			for _, r := range rows {
				if !r[1].Null {
					live = append(live, r)
				}
			}
		}
		cost := &cluster.CostModel{ProcBps: 1e9}
		p := &colProbeIter{
			in:     in,
			keyFns: []vecFn{firstColKey},
			build:  bt,
			types:  append(append([]row.Type(nil), types...), row.TypeInt),
			cost:   cost,
			node:   node,

			probeCols: identityCols(len(types)), buildCols: identityCols(1),
		}
		if _, err := drainBatches(p); err != nil {
			t.Fatal(err)
		}
		if got, want := cost.Stats().ProcBytes, int64(partBytes(live)); got != want {
			t.Fatalf("sel=%v rows=%d/%d: probe charged %d bytes, partBytes of the live rows = %d",
				withSel, len(live), len(rows), got, want)
		}
	}
}

// bucketOrderRows builds t and u for the bucket-order tests: u holds 64
// keys × 48 rows, key number i%64 at row i, so every key's rows interleave
// across every partition and chunk; w is the row's global index, so a
// bucket's order shows in the output. The keys are spread-out values, not
// 0..63, whose hashes share their high bits. t probes every key twice, and
// five keys no build row has.
func bucketOrderRows() (left, right []row.Row) {
	const keys, perKey = 64, 48
	key := func(i int) row.Value { return row.Int(int64(uint64(i) * 0x9E3779B97F4A7C15 >> 12)) }
	for i := 0; i < keys*perKey; i++ {
		right = append(right, row.Row{key(i % keys), row.Float(float64(i))})
	}
	for i := 0; i < 2*(keys+5); i++ {
		left = append(left, row.Row{key(i % (keys + 5)), row.Int(int64(i)), row.Float(0), row.String_("c")})
	}
	return left, right
}

// TestJoinBucketOrder: with many build rows per key over three build
// partitions, each bucket lists its rows in global build order at every
// pool size, and a join over them gives referenceQuery's exact sequence
// at Parallelism 1, 2 and 4.
func TestJoinBucketOrder(t *testing.T) {
	left, right := bucketOrderRows()
	types := []row.Type{row.TypeInt, row.TypeFloat}
	third := len(right) / 3
	parts := rowsToChunks(types, [][]row.Row{right[:third], right[third : 2*third], right[2*third:]})
	probe := rowsToChunks(types, [][]row.Row{right[:64]})[0][0] // key numbers 0..63 in order
	var pk packedKeys
	if err := packKeys(&vecCtx{}, []vecFn{firstColKey}, probe, &pk); err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 2, 4} {
		bt, err := buildHashTable(newQueryPool(par), parts, []vecFn{firstColKey})
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 64; k++ {
			bucket := bt.bucket(pk.key(k), pk.hashes[k])
			if len(bucket) != 48 {
				t.Fatalf("pool %d: key %d: bucket of %d rows, want 48", par, k, len(bucket))
			}
			for j, ref := range bucket {
				if w := bt.chunks[ref.Chunk].Col(1).Floats[ref.Pos]; w != float64(k+64*j) {
					t.Fatalf("pool %d: key %d: bucket entry %d is row %v, want %d", par, k, j, w, k+64*j)
				}
			}
		}
	}

	const sql = "SELECT t.v, u.k, u.w FROM t, u WHERE t.k = u.k"
	want, err := referenceQuery(oracleEngine(t, 3, left, right, false, Config{Parallelism: 1}), sql)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 2, 4} {
		res, err := oracleEngine(t, 3, left, right, false, Config{Parallelism: par}).Query(sql)
		if err != nil {
			t.Fatalf("P=%d: %v", par, err)
		}
		got := res.Rows()
		if g, w := fmt.Sprint(rowStrings(got)), fmt.Sprint(rowStrings(want)); g != w {
			t.Fatalf("P=%d: %d rows, reference %d, sequences differ", par, len(got), len(want))
		}
	}
}

// TestJoinBuildAllocsIndependentOfKeys: the build allocates per table,
// not per key. Over a fixed 10 000 build rows, 10 000 distinct keys may
// cost more than 100 only through structures that grow geometrically with
// the key count — the arena table's slot array (6 more doublings) and key
// chunks (one more), and the bucket offsets (append growth) — which
// together add 18; the bound is 24. One bucket slice per key would add
// 9 900.
func TestJoinBuildAllocsIndependentOfKeys(t *testing.T) {
	const rows = 10_000
	types := []row.Type{row.TypeInt, row.TypeFloat}
	build := func(keys int) float64 {
		var rs []row.Row
		for i := 0; i < rows; i++ {
			rs = append(rs, row.Row{row.Int(int64(i % keys)), row.Float(float64(i))})
		}
		parts := rowsToChunks(types, [][]row.Row{rs})
		return testing.AllocsPerRun(10, func() {
			if _, err := buildHashTable(newQueryPool(1), parts, []vecFn{firstColKey}); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := build(100), build(rows)
	if many > few+24 {
		t.Errorf("build over %d rows allocates %.0f times with %d keys, %.0f with 100: want at most 24 more", rows, many, rows, few)
	}
}
