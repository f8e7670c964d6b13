package sqlengine

import (
	"fmt"
	"testing"

	"sqlml/internal/row"
)

// The columnar twin of residency_test.go: a hostile-but-contract-abiding
// producer reuses one ColBatch for every NextCol call and, before
// refilling it, poisons every slot it handed out last time — value arrays,
// string slab, and selection vector alike. Any operator that kept a
// vector view or selection alias (instead of copying what it retains
// before its next pull) reads poison and produces wrong results. The
// tests drive the retention-critical columnar paths — filter→project,
// hash probe, sort-run preparation, and grouped-agg key materialization —
// and check exact outputs.

// recyclingColBatches produces rows in column-major batches through one
// recycled ColBatch. With junk=true each batch also carries a physical
// poison row masked off by a selection vector, so consumers must honor
// SelPos; the selection slice itself is recycled and re-pointed at the
// poison slot on the following call.
type recyclingColBatches struct {
	types  []row.Type
	rows   []row.Row
	size   int
	junk   bool
	i      int
	buf    *row.ColBatch
	sel    []int32
	poison row.Row
	prev   int // physical rows handed out by the previous call
}

func newRecyclingColBatches(types []row.Type, rows []row.Row, size int, junk bool) *recyclingColBatches {
	poison := make(row.Row, len(types))
	for i, t := range types {
		switch t {
		case row.TypeInt:
			poison[i] = row.Int(-987654321)
		case row.TypeFloat:
			poison[i] = row.Float(-987654321)
		case row.TypeBool:
			poison[i] = row.Bool(true)
		case row.TypeString:
			poison[i] = row.String_("POISON")
		}
	}
	return &recyclingColBatches{types: types, rows: rows, size: size, junk: junk, poison: poison}
}

func (rc *recyclingColBatches) NextCol() (*row.ColBatch, bool, error) {
	if rc.buf == nil {
		rc.buf = row.NewColBatch(rc.types)
	} else {
		// Overwrite last batch's slots in their own backing arrays, and
		// re-point any retained selection entries at slot 0.
		rc.buf.Reset(rc.types)
		for j := 0; j < rc.prev; j++ {
			rc.buf.AppendRow(rc.poison)
		}
		for j := range rc.sel {
			rc.sel[j] = 0
		}
	}
	if rc.i >= len(rc.rows) {
		return nil, false, nil
	}
	end := min(rc.i+rc.size, len(rc.rows))
	rc.buf.Reset(rc.types)
	for _, r := range rc.rows[rc.i:end] {
		rc.buf.AppendRow(r)
	}
	n := end - rc.i
	rc.i = end
	rc.prev = n
	if rc.junk {
		rc.buf.AppendRow(rc.poison)
		rc.prev = n + 1
		rc.sel = rc.sel[:0]
		for j := 0; j < n; j++ {
			rc.sel = append(rc.sel, int32(j))
		}
		rc.buf.SetSel(rc.sel)
	}
	return rc.buf, true, nil
}

func (rc *recyclingColBatches) Close() { rc.i = len(rc.rows) }

// intColRows builds (v BIGINT) rows.
func intColRows(vs ...int64) []row.Row {
	out := make([]row.Row, len(vs))
	for i, v := range vs {
		out[i] = row.Row{row.Int(v)}
	}
	return out
}

// oddKernel is a handmade predicate kernel: v at column 0 is odd.
func oddKernel(c *vecCtx, b *row.ColBatch, pos []int32) (*row.Vector, error) {
	col := b.Col(0)
	out := c.get()
	out.ResetDense(row.TypeBool, b.FullLen())
	if pos == nil {
		pos = c.allPos(b.FullLen())
	}
	for _, pp := range pos {
		p := int(pp)
		if col.Null(p) {
			out.SetNull(p)
			continue
		}
		out.Bools[p] = col.Ints[p]%2 != 0
	}
	return out, nil
}

// timesTenKernel projects v*10.
func timesTenKernel(c *vecCtx, b *row.ColBatch, pos []int32) (*row.Vector, error) {
	col := b.Col(0)
	out := c.get()
	out.ResetDense(row.TypeInt, b.FullLen())
	if pos == nil {
		pos = c.allPos(b.FullLen())
	}
	for _, pp := range pos {
		p := int(pp)
		if col.Null(p) {
			out.SetNull(p)
			continue
		}
		out.Ints[p] = col.Ints[p] * 10
	}
	return out, nil
}

// TestColFilterProjectUnderVectorRecycling pulls a filter→project chain
// over the poisoning producer, with the producer masking a physical
// poison row behind the selection vector, and checks the exact surviving
// values. The row materialization at the end must copy before the
// chain's next pull recycles the vectors.
func TestColFilterProjectUnderVectorRecycling(t *testing.T) {
	for _, junk := range []bool{false, true} {
		src := newRecyclingColBatches(
			[]row.Type{row.TypeInt},
			intColRows(1, 2, 3, 4, 5, 6, 7, 8, 9),
			4, junk)
		chain := newColProjectIter(
			newColFilterIter(src, oddKernel),
			[]vecFn{timesTenKernel},
			[]row.Type{row.TypeInt})
		got, err := drainBatches(chain)
		if err != nil {
			t.Fatal(err)
		}
		want := []int64{10, 30, 50, 70, 90}
		if len(got) != len(want) {
			t.Fatalf("junk=%v: %d rows, want %d: %v", junk, len(got), len(want), got)
		}
		for i, w := range want {
			if got[i][0].AsInt() != w {
				t.Errorf("junk=%v: row %d = %v, want %d", junk, i, got[i], w)
			}
		}
	}
}

// TestColProbeIterUnderVectorRecycling drives the hash-join probe with
// the poisoning producer, the way openJoin wires it over its input
// pipeline, and checks the exact join output. The probe must gather
// the probe-side cells into its own output batch before pulling the next
// input batch.
func TestColProbeIterUnderVectorRecycling(t *testing.T) {
	var build []row.Row
	for k := int64(1); k <= 3; k++ {
		build = append(build, row.Row{row.Int(k), row.Int(k * 10)})
	}
	bt := buildRows(t, []row.Type{row.TypeInt, row.TypeInt}, build, firstColKey)

	for _, junk := range []bool{false, true} {
		probe := newRecyclingColBatches(
			[]row.Type{row.TypeInt}, intColRows(2, 5, 1, 3, 2), 2, junk)
		p := &colProbeIter{
			in:     probe,
			keyFns: []vecFn{firstColKey},
			build:  bt,
			types:  []row.Type{row.TypeInt, row.TypeInt, row.TypeInt},

			probeCols: identityCols(1), buildCols: identityCols(2),
		}
		got, err := drainBatches(p)
		if err != nil {
			t.Fatal(err)
		}
		want := [][2]int64{{2, 20}, {1, 10}, {3, 30}, {2, 20}}
		if len(got) != len(want) {
			t.Fatalf("junk=%v: join produced %d rows, want %d: %v", junk, len(got), len(want), got)
		}
		for i, w := range want {
			if got[i][0].AsInt() != w[0] || got[i][2].AsInt() != w[1] {
				t.Errorf("junk=%v: row %d = %v, want (%d, _, %d)", junk, i, got[i], w[0], w[1])
			}
		}
	}
}

// TestKeylessProbeUnderBatchRecycling drives the cartesian join — the
// probe with no key kernels over a key-less build — with the poisoning
// producer, the way openJoin wires it, and checks the exact join output:
// every probe row pairs with both build rows, in build order.
func TestKeylessProbeUnderBatchRecycling(t *testing.T) {
	// Probe side: 2, 5, 1 in batches of 2; build side: two rows.
	bt := buildRows(t, []row.Type{row.TypeInt}, intRows(10, 20))
	for _, junk := range []bool{false, true} {
		p := &colProbeIter{
			in:    newRecyclingColBatches([]row.Type{row.TypeInt}, intColRows(2, 5, 1), 2, junk),
			build: bt,
			types: []row.Type{row.TypeInt, row.TypeInt},

			probeCols: identityCols(1), buildCols: identityCols(1),
		}
		got, err := drainBatches(p)
		if err != nil {
			t.Fatal(err)
		}
		want := [][2]int64{{2, 10}, {2, 20}, {5, 10}, {5, 20}, {1, 10}, {1, 20}}
		if len(got) != len(want) {
			t.Fatalf("junk=%v: join produced %d rows, want %d: %v", junk, len(got), len(want), got)
		}
		for i, w := range want {
			if len(got[i]) != 2 || got[i][0].AsInt() != w[0] || got[i][1].AsInt() != w[1] {
				t.Errorf("junk=%v: row %d = %v, want (%d, %d)", junk, i, got[i], w[0], w[1])
			}
		}
	}
}

// TestColSortRunsUnderVectorRecycling drains poisoning producers into
// sealed chunks the way orderBy does — the chunk writer must copy string
// payloads out of the recycled slab — then sorts by the chunks' key
// vectors and gathers, checking the exact global order, including
// cross-partition tie-breaking.
func TestColSortRunsUnderVectorRecycling(t *testing.T) {
	strRows := func(pairs ...any) []row.Row {
		var out []row.Row
		for i := 0; i < len(pairs); i += 2 {
			out = append(out, row.Row{row.String_(pairs[i].(string)), row.Int(int64(pairs[i+1].(int)))})
		}
		return out
	}
	parts := [][]row.Row{
		strRows("mm", 1, "aa", 2, "zz", 3, "mm", 4),
		strRows("bb", 5, "mm", 6, "aa", 7),
	}
	types := []row.Type{row.TypeString, row.TypeInt}
	qp := newQueryPool(2)
	chunks := make([][]*row.ColBatch, len(parts))
	for i, part := range parts {
		c, err := qp.drainChunks([]ColBatchSource{newRecyclingColBatches(types, part, 2, true)}, types)
		if err != nil {
			t.Fatal(err)
		}
		chunks[i] = c[0]
	}
	sorted, err := sortParts(qp, []orderSpec{{}}, []vecFn{colKey(0)}, types, chunks)
	if err != nil {
		t.Fatal(err)
	}
	merged := chunkRows(sorted)
	// Sorted by cat ascending; ties keep partition order, lower partition
	// first: aa(2) from part 0 before aa(7) from part 1, then the three
	// mm's as 1, 4 (part 0) then 6 (part 1).
	want := []int64{2, 7, 5, 1, 4, 6, 3}
	wantCat := []string{"aa", "aa", "bb", "mm", "mm", "mm", "zz"}
	if len(merged) != len(want) {
		t.Fatalf("merged %d rows, want %d", len(merged), len(want))
	}
	for i := range want {
		if merged[i][0].AsString() != wantCat[i] || merged[i][1].AsInt() != want[i] {
			t.Errorf("merged[%d] = %v, want (%s, %d)", i, merged[i], wantCat[i], want[i])
		}
	}
}

// TestColGroupKeysSurviveVectorRecycling runs the grouped-agg columnar
// inner loop — vector key packing, one Insert per row, group-key
// materialization via ValueAt — over the poisoning producer. String group
// keys are the dangerous retention: they must be copied out of the slab
// the producer recycles.
func TestColGroupKeysSurviveVectorRecycling(t *testing.T) {
	cats := []string{"alpha", "beta", "gamma"}
	var rows []row.Row
	for i := 0; i < 13; i++ {
		rows = append(rows, row.Row{row.String_(cats[i%3]), row.Int(int64(i))})
	}
	types := []row.Type{row.TypeString, row.TypeInt}
	src := newRecyclingColBatches(types, rows, 4, true)

	type grp struct {
		key row.Row
		sum int64
		n   int64
	}
	ht := NewHashTable()
	var groups []*grp
	var key []byte
	var idxs []uint32
	for {
		b, ok, err := src.NextCol()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		kv, av := b.Col(0), b.Col(1)
		k := b.Len()
		idxs = idxs[:0]
		for si := 0; si < k; si++ {
			key = row.AppendVectorKey(key[:0], kv, b.SelPos(si))
			idx, _ := ht.Insert(key)
			idxs = append(idxs, idx)
		}
		for si := 0; si < k; si++ {
			p := b.SelPos(si)
			if int(idxs[si]) == len(groups) {
				groups = append(groups, &grp{key: row.Row{kv.ValueAt(p)}})
			}
			g := groups[idxs[si]]
			g.sum += av.Ints[p]
			g.n++
		}
	}
	if len(groups) != 3 {
		t.Fatalf("groups = %d, want 3", len(groups))
	}
	// 13 rows, i%3 cycling: alpha gets i∈{0,3,6,9,12}, beta {1,4,7,10},
	// gamma {2,5,8,11}.
	want := map[string][2]int64{
		"alpha": {30, 5},
		"beta":  {22, 4},
		"gamma": {26, 4},
	}
	for _, g := range groups {
		cat := g.key[0].AsString()
		w, ok := want[cat]
		if !ok {
			t.Errorf("unexpected group key %q (poison leaked into a retained key)", cat)
			continue
		}
		if g.sum != w[0] || g.n != w[1] {
			t.Errorf("group %q = (sum %d, n %d), want (%d, %d)", cat, g.sum, g.n, w[0], w[1])
		}
	}
}

// TestStringCaseUnderBatchRecycling projects a VARCHAR CASE — arms that
// alias the input column, a literal, a function over the column, and a
// missing ELSE — over a filter's selection vector, fed by the poisoning
// producer, and requires exactly the oracle's row-at-a-time answer: the
// gather must write each live row's cell from the arm that claimed it, in
// position order, before the next pull recycles the input.
func TestStringCaseUnderBatchRecycling(t *testing.T) {
	sel, err := ParseSelect(`SELECT CASE WHEN v > 4 THEN cat WHEN v IS NULL THEN 'none'
		WHEN v > 1 THEN UPPER(cat) END FROM t WHERE v IS NULL OR v <> 3`)
	if err != nil {
		t.Fatal(err)
	}
	types := []row.Type{row.TypeInt, row.TypeString}
	sc := newScope()
	if err := sc.add("t", row.MustSchema(row.Column{Name: "v", Type: row.TypeInt}, row.Column{Name: "cat", Type: row.TypeString})); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	pred, _, err := compileVec(sel.Where, sc, reg)
	if err != nil {
		t.Fatal(err)
	}
	caseFn, _, err := compileVec(sel.Items[0].Expr, sc, reg)
	if err != nil {
		t.Fatal(err)
	}
	refPred, _, err := compile(sel.Where, sc, reg)
	if err != nil {
		t.Fatal(err)
	}
	refCase, _, err := compile(sel.Items[0].Expr, sc, reg)
	if err != nil {
		t.Fatal(err)
	}
	null := row.NullOf(row.TypeInt)
	var rows []row.Row
	for i, v := range []row.Value{row.Int(5), row.Int(2), null, row.Int(3), row.Int(1), row.Int(6), null, row.Int(4), row.Int(2)} {
		cat := row.String_([]string{"é", "ab", "dd"}[i%3])
		if i == 4 {
			cat = row.NullOf(row.TypeString)
		}
		rows = append(rows, row.Row{v, cat})
	}
	var want []string
	for _, r := range rows {
		if keep, err := refPred(r); err != nil || keep.Null || !keep.AsBool() {
			continue
		}
		v, err := refCase(r)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, row.Row{v}.String())
	}
	for _, junk := range []bool{false, true} {
		chain := newColProjectIter(
			newColFilterIter(newRecyclingColBatches(types, rows, 4, junk), pred),
			[]vecFn{caseFn},
			[]row.Type{row.TypeString})
		got, err := drainBatches(chain)
		if err != nil {
			t.Fatal(err)
		}
		if g := rowStrings(got); fmt.Sprint(g) != fmt.Sprint(want) {
			t.Errorf("junk=%v:\n got  %v\n want %v", junk, g, want)
		}
	}
}
