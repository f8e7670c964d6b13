package sqlengine

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"sqlml/internal/cluster"
	"sqlml/internal/row"
)

// These properties pin the arena hash-table paths to the semantics of the
// old map[string]-based operators: for every consumer (join, GROUP BY,
// DISTINCT) the engine's output must match an oracle computed in plain Go
// with string-keyed maps over the same raw rows.

// sortedFingerprints renders rows as strings and sorts them, for
// order-insensitive comparison.
func sortedFingerprints(rows []row.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

// oracleKey is the map key of the oracles below: the Go-syntax rendering
// of the values, exact per kind and independent of the engine's key codec.
func oracleKey(vals ...row.Value) string { return fmt.Sprintf("%#v", vals) }

func fingerprintsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPropertyJoinMatchesMapOracle: the arena-table hash join returns
// exactly the multiset a map[string][]row build+probe over the raw rows
// produces (numeric-normalized keys, NULL keys never match).
func TestPropertyJoinMatchesMapOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e, left, right := randomTables(t, rng)
		res, err := e.Query("SELECT l.v, l.cat, r.w FROM l, r WHERE l.k = r.k")
		if err != nil {
			return false
		}
		// Map-based oracle in the pre-arena implementation's shape: build
		// side keyed by the numeric-normalized value.
		normKey := func(v row.Value) string {
			if v.Kind == row.TypeInt {
				v = row.Float(v.AsFloat())
			}
			return oracleKey(v)
		}
		table := make(map[string][]row.Row)
		for _, rr := range right {
			if rr[0].Null {
				continue
			}
			k := normKey(rr[0])
			table[k] = append(table[k], rr)
		}
		var oracle []row.Row
		for _, lr := range left {
			if lr[0].Null {
				continue
			}
			for _, rr := range table[normKey(lr[0])] {
				oracle = append(oracle, row.Row{lr[1], lr[2], rr[1]})
			}
		}
		return fingerprintsEqual(sortedFingerprints(res.Rows()), sortedFingerprints(oracle))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyGroupByMatchesMapOracle: multi-key GROUP BY aggregates
// match a map[string]-keyed oracle over the raw rows.
func TestPropertyGroupByMatchesMapOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e, left, _ := randomTables(t, rng)
		res, err := e.Query("SELECT cat, k, COUNT(*), SUM(v), MIN(v), MAX(v) FROM l GROUP BY cat, k")
		if err != nil {
			return false
		}
		type acc struct {
			n        int64
			sum      int64
			min, max int64
		}
		oracle := make(map[string]*acc)
		for _, r := range left {
			k := oracleKey(r[2], r[0])
			a, ok := oracle[k]
			if !ok {
				a = &acc{min: r[1].AsInt(), max: r[1].AsInt()}
				oracle[k] = a
			}
			v := r[1].AsInt()
			a.n++
			a.sum += v
			if v < a.min {
				a.min = v
			}
			if v > a.max {
				a.max = v
			}
		}
		if res.NumRows() != len(oracle) {
			return false
		}
		for _, r := range res.Rows() {
			k := oracleKey(r[0], r[1])
			a, ok := oracle[k]
			if !ok {
				return false
			}
			if r[2].AsInt() != a.n || r[3].AsInt() != a.sum ||
				r[4].AsInt() != a.min || r[5].AsInt() != a.max {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyDistinctMatchesMapOracle: multi-column DISTINCT returns
// exactly the rows a map[string]bool oracle keeps, each exactly once.
func TestPropertyDistinctMatchesMapOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e, left, _ := randomTables(t, rng)
		res, err := e.Query("SELECT DISTINCT k, cat FROM l")
		if err != nil {
			return false
		}
		oracle := make(map[string]bool)
		var want []row.Row
		for _, r := range left {
			k := oracleKey(r[0], r[2])
			if !oracle[k] {
				oracle[k] = true
				want = append(want, row.Row{r[0], r[2]})
			}
		}
		return fingerprintsEqual(sortedFingerprints(res.Rows()), sortedFingerprints(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestOrderByStableMergePreservesTieOrder: for rows with duplicate sort
// keys, the parallel sort-merge emits ties in exactly the order a stable
// sort of the concatenated partitions produces — the old sequential
// implementation's contract. Partitions are loaded explicitly so the
// expected concatenation order is known: random small ones, and three
// partitions of 10 000 rows over four keys, whose ties run across
// partitions and far past any one chunk.
func TestOrderByStableMergePreservesTieOrder(t *testing.T) {
	// tieOrderHolds loads parts (a low-cardinality sort key and a unique
	// serial, so ties are plentiful and every row is identifiable) one
	// partition per worker and checks ORDER BY k DESC against a stable
	// sort of their concatenation.
	tieOrderHolds := func(parts [][]row.Row) bool {
		topo := cluster.NewTopology(len(parts) + 1)
		ids := make([]int, len(parts))
		for i := range ids {
			ids[i] = i + 1
		}
		e, err := New(topo, nil, Config{HeadNodeID: 0, WorkerNodeIDs: ids})
		if err != nil {
			return false
		}
		schema := row.MustSchema(
			row.Column{Name: "k", Type: row.TypeInt},
			row.Column{Name: "id", Type: row.TypeInt},
		)
		if err := e.LoadPartitionedTable("t", schema, parts); err != nil {
			return false
		}
		res, err := e.Query("SELECT k, id FROM t ORDER BY k DESC")
		if err != nil {
			return false
		}
		var concat []row.Row
		for _, p := range parts {
			concat = append(concat, p...)
		}
		want := append([]row.Row(nil), concat...)
		sort.SliceStable(want, func(a, b int) bool { return want[a][0].AsInt() > want[b][0].AsInt() })
		got := res.Rows()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i][0].AsInt() != want[i][0].AsInt() || got[i][1].AsInt() != want[i][1].AsInt() {
				return false
			}
		}
		return true
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		parts := make([][]row.Row, 1+rng.Intn(5))
		serial := int64(0)
		for w := range parts {
			for i := 0; i < rng.Intn(40); i++ {
				parts[w] = append(parts[w], row.Row{row.Int(int64(rng.Intn(4))), row.Int(serial)})
				serial++
			}
		}
		return tieOrderHolds(parts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}

	rng := rand.New(rand.NewSource(1))
	large := make([][]row.Row, 3)
	for w := range large {
		for i := range 10_000 {
			large[w] = append(large[w], row.Row{row.Int(int64(rng.Intn(4))), row.Int(int64(w*10_000 + i))})
		}
	}
	if !tieOrderHolds(large) {
		t.Error("three partitions of 10 000 rows over four keys: ties out of stable order")
	}
}

// keyedRuns makes run i one chunk whose key column holds runs[i]'s keys,
// and returns the runs as refs with the comparator over those keys.
func keyedRuns(runs ...[]int64) (func(a, b sortRef) int, [][]sortRef) {
	s := &sortKeys{specs: []orderSpec{{}}}
	refs := make([][]sortRef, len(runs))
	for i, keys := range runs {
		v := &row.Vector{}
		v.Reset(row.TypeInt)
		for j, k := range keys {
			v.AppendInt(k)
			refs[i] = append(refs[i], sortRef{Chunk: int32(i), Pos: int32(j)})
		}
		s.keys = append(s.keys, []*row.Vector{v})
	}
	return s.compare, refs
}

// TestCompareCellsMatchesValueCompare holds the sort's vector comparator
// to Value.Compare over every pair of cells of one type, the edges
// included: NULL sorts lowest, -0 ties with +0, and NaN — whatever its
// payload — ties with NaN and sorts above +Inf. Each list is in ascending
// order, so the expected sign is also pinned by position.
func TestCompareCellsMatchesValueCompare(t *testing.T) {
	nanA := math.Float64frombits(0x7ff8000000000001)
	nanB := math.Float64frombits(0xfff8000000000123)
	for _, vals := range [][]row.Value{
		{row.NullOf(row.TypeInt), row.Int(math.MinInt64), row.Int(-1), row.Int(0), row.Int(1), row.Int(math.MaxInt64)},
		{row.NullOf(row.TypeFloat), row.Float(math.Inf(-1)), row.Float(-1.5), row.Float(math.Copysign(0, -1)), row.Float(0), row.Float(2), row.Float(math.Inf(1)), row.Float(nanA), row.Float(nanB)},
		{row.NullOf(row.TypeString), row.String_(""), row.String_("a"), row.String_("ab"), row.String_("b"), row.String_("é")},
		{row.NullOf(row.TypeBool), row.Bool(false), row.Bool(true)},
	} {
		v := &row.Vector{}
		v.Reset(vals[0].Kind)
		for _, x := range vals {
			v.AppendValue(x)
		}
		for p, a := range vals {
			for q, b := range vals {
				if got, want := compareCells(v, p, v, q), a.Compare(b); got != want {
					t.Errorf("compareCells(%v, %v) = %d, Value.Compare = %d", a, b, got, want)
				}
				if p < q {
					want := -1
					if a.Equal(b) {
						want = 0
					}
					if got := a.Compare(b); got != want {
						t.Errorf("Value.Compare(%v, %v) = %d, want %d by the list order", a, b, got, want)
					}
				}
			}
		}
	}
}

// TestMergeRunsEdgeCases exercises the loser tree directly: empty runs,
// a single run, and run counts around power-of-two boundaries.
func TestMergeRunsEdgeCases(t *testing.T) {
	run := func(keys ...int64) []int64 { return keys }
	for _, tc := range []struct {
		name string
		runs [][]int64
		want []int64
	}{
		{"single", [][]int64{run(1, 2, 3)}, []int64{1, 2, 3}},
		{"two", [][]int64{run(1, 3), run(2, 4)}, []int64{1, 2, 3, 4}},
		{"empty-runs", [][]int64{run(), run(5), run(), run(1)}, []int64{1, 5}},
		{"all-empty", [][]int64{run(), run(), run()}, nil},
		{"three", [][]int64{run(2, 2), run(1, 2), run(2, 3)}, []int64{1, 2, 2, 2, 2, 3}},
		{"five", [][]int64{run(9), run(1, 8), run(4), run(2, 7), run(3)}, []int64{1, 2, 3, 4, 7, 8, 9}},
	} {
		cmp, runs := keyedRuns(tc.runs...)
		got := mergeRuns(cmp, runs)
		if len(got) != len(tc.want) {
			t.Fatalf("%s: got %d rows, want %d", tc.name, len(got), len(tc.want))
		}
		for i, r := range got {
			if k := tc.runs[r.Chunk][r.Pos]; k != tc.want[i] {
				t.Fatalf("%s: row %d = %d, want %d (%v)", tc.name, i, k, tc.want[i], got)
			}
		}
	}
}

// TestMergeRunsStableAcrossRunIndex: equal keys come out in run order.
func TestMergeRunsStableAcrossRunIndex(t *testing.T) {
	// every run holds the same keys; the ref identifies (run, pos)
	cmp, runs := keyedRuns([]int64{0, 1, 2}, []int64{0, 1, 2}, []int64{0, 1, 2}, []int64{0, 1, 2})
	got := mergeRuns(cmp, runs)
	k := 0
	for j := 0; j < 3; j++ {
		for i := 0; i < 4; i++ {
			if want := (sortRef{Chunk: int32(i), Pos: int32(j)}); got[k] != want {
				t.Fatalf("pos %d: got r%d-%d, want r%d-%d", k, got[k].Chunk, got[k].Pos, i, j)
			}
			k++
		}
	}
}
