package sqlengine

import (
	"fmt"
	"slices"
	"strings"

	"sqlml/internal/row"
)

// walkExpr visits every node of an expression tree, pre-order.
func walkExpr(e Expr, visit func(Expr)) {
	if e == nil {
		return
	}
	visit(e)
	switch x := e.(type) {
	case *BinOp:
		walkExpr(x.L, visit)
		walkExpr(x.R, visit)
	case *NotExpr:
		walkExpr(x.E, visit)
	case *IsNullExpr:
		walkExpr(x.E, visit)
	case *InListExpr:
		walkExpr(x.E, visit)
		for _, le := range x.List {
			walkExpr(le, visit)
		}
	case *FuncCall:
		for _, a := range x.Args {
			walkExpr(a, visit)
		}
	case *CaseExpr:
		for _, w := range x.Whens {
			walkExpr(w.Cond, visit)
			walkExpr(w.Then, visit)
		}
		walkExpr(x.Else, visit)
	}
}

// exprHasAggregate reports whether the expression contains an aggregate
// function call anywhere.
func exprHasAggregate(e Expr) bool {
	found := false
	walkExpr(e, func(sub Expr) {
		if fc, ok := sub.(*FuncCall); ok && isAggregateName(fc.Name) {
			found = true
		}
	})
	return found
}

// aggKind enumerates the built-in aggregate functions.
type aggKind int

const (
	aggCount aggKind = iota
	aggSum
	aggAvg
	aggMin
	aggMax
)

func aggKindOf(name string) (aggKind, bool) {
	switch strings.ToLower(name) {
	case "count":
		return aggCount, true
	case "sum":
		return aggSum, true
	case "avg":
		return aggAvg, true
	case "min":
		return aggMin, true
	case "max":
		return aggMax, true
	}
	return 0, false
}

// aggSpec is one aggregate column of the output.
type aggSpec struct {
	call    *FuncCall // the call as written
	kind    aggKind
	star    bool
	arg     vecFn // the argument's kernel; nil for COUNT(*)
	argType row.Type
}

// outputCol describes one select item of an aggregate query: either a
// group-by key (keyIdx >= 0) or an aggregate (aggIdx >= 0).
type outputCol struct {
	keyIdx int
	aggIdx int
}

// aggState is one aggregate's state over every group of a partial, or of
// the head merge: typed slices indexed by the hash table's dense group id
// — MADlib's transition state, a column per field. Which slices are live
// depends on the aggregate and its argument type; COUNT keeps counts alone.
type aggState struct {
	spec *aggSpec
	// counts is COUNT's count, and for every other aggregate the non-NULL
	// arguments folded in: 0 means the result is NULL.
	counts []int64
	ints   []int64   // BIGINT SUM/AVG sum, or BIGINT MIN/MAX extreme
	floats []float64 // DOUBLE SUM/AVG sum, or DOUBLE MIN/MAX extreme
	bools  []bool    // BOOLEAN MIN/MAX extreme
	strs   []string  // VARCHAR MIN/MAX extreme, allocated only when it changes
	// over is sticky: the group's BIGINT SUM/AVG left the int64 range in
	// the transition or the merge, which fails the query.
	over []bool
}

func (a *aggState) sums() bool { return a.spec.kind == aggSum || a.spec.kind == aggAvg }

// grow extends the state to n groups, each new one empty.
func (a *aggState) grow(n int) {
	a.counts = growTo(a.counts, n)
	if a.spec.kind == aggCount {
		return
	}
	switch a.spec.argType {
	case row.TypeInt:
		a.ints = growTo(a.ints, n)
		if a.sums() {
			a.over = growTo(a.over, n)
		}
	case row.TypeFloat:
		a.floats = growTo(a.floats, n)
	case row.TypeBool:
		a.bools = growTo(a.bools, n)
	default:
		a.strs = growTo(a.strs, n)
	}
}

func growTo[T any](s []T, n int) []T { return append(s, make([]T, n-len(s))...) }

// add is the transition: it folds the argument v's cells at pos into the
// groups idxs names (idxs[i] is pos[i]'s group), in one loop for the
// batch. v is nil for COUNT(*).
func (a *aggState) add(idxs []uint32, v *row.Vector, pos []int32) {
	switch s := a.spec; {
	case s.star:
		for _, g := range idxs {
			a.counts[g]++
		}
	case s.kind == aggCount:
		for si, p := range pos {
			if !v.Null(int(p)) {
				a.counts[idxs[si]]++
			}
		}
	case a.sums() && s.argType == row.TypeInt:
		for si, p := range pos {
			if v.Null(int(p)) {
				continue
			}
			g := idxs[si]
			sum, ok := addInt64(a.ints[g], v.Ints[p])
			a.ints[g], a.over[g] = sum, a.over[g] || !ok
			a.counts[g]++
		}
	case a.sums():
		for si, p := range pos {
			if v.Null(int(p)) {
				continue
			}
			g := idxs[si]
			a.floats[g] += v.Floats[p]
			a.counts[g]++
		}
	case s.argType == row.TypeInt:
		foldExtreme(a.ints, a.counts, idxs, v.Ints, v, pos, s.kind == aggMax)
	case s.argType == row.TypeFloat:
		foldExtreme(a.floats, a.counts, idxs, v.Floats, v, pos, s.kind == aggMax)
	case s.argType == row.TypeBool:
		max := s.kind == aggMax
		for si, p := range pos {
			if v.Null(int(p)) {
				continue
			}
			g, x := idxs[si], v.Bools[p]
			if a.counts[g] == 0 || (x != a.bools[g] && x == max) {
				a.bools[g] = x
			}
			a.counts[g]++
		}
	default:
		max := s.kind == aggMax
		for si, p := range pos {
			if v.Null(int(p)) {
				continue
			}
			g, x := idxs[si], v.Bytes(int(p))
			if a.counts[g] == 0 || (string(x) != a.strs[g] && (string(x) > a.strs[g]) == max) {
				a.strs[g] = string(x)
			}
			a.counts[g]++
		}
	}
}

// foldExtreme is MIN's or MAX's transition over a BIGINT or DOUBLE
// argument whose values are cells.
func foldExtreme[T int64 | float64](vals []T, counts []int64, idxs []uint32, cells []T, v *row.Vector, pos []int32, max bool) {
	for si, p := range pos {
		if v.Null(int(p)) {
			continue
		}
		g, x := idxs[si], cells[p]
		if counts[g] == 0 || beats(cmpOrdered(x, vals[g]), max) {
			vals[g] = x
		}
		counts[g]++
	}
}

// beats reports whether a value that compares c (-1, 0 or +1) against the
// group's extreme so far replaces it: strictly below for MIN, strictly
// above for MAX. A tie keeps the first seen, so of -0 and +0 the first
// stays; cmpOrdered puts NaN above every number.
func beats(c int, max bool) bool { return c != 0 && (c > 0) == max }

// merge folds o, one partial's state, into a: o's group lo+j is a's group
// ids[j]. The merged groups start empty, and merging into an empty group
// copies, so a group's first partial is taken as it stands.
func (a *aggState) merge(o *aggState, lo int, ids []uint32) {
	switch s := a.spec; {
	case s.kind == aggCount: // counts alone, summed below
	case a.sums() && s.argType == row.TypeInt:
		for j, g := range ids {
			sum, ok := addInt64(a.ints[g], o.ints[lo+j])
			a.ints[g], a.over[g] = sum, a.over[g] || o.over[lo+j] || !ok
		}
	case a.sums():
		for j, g := range ids {
			a.floats[g] += o.floats[lo+j]
		}
	case s.argType == row.TypeInt:
		mergeExtreme(a.ints, o.ints[lo:], a.counts, o.counts[lo:], ids, s.kind == aggMax, cmpOrdered[int64])
	case s.argType == row.TypeFloat:
		mergeExtreme(a.floats, o.floats[lo:], a.counts, o.counts[lo:], ids, s.kind == aggMax, cmpOrdered[float64])
	case s.argType == row.TypeBool:
		mergeExtreme(a.bools, o.bools[lo:], a.counts, o.counts[lo:], ids, s.kind == aggMax, cmpBool)
	default:
		mergeExtreme(a.strs, o.strs[lo:], a.counts, o.counts[lo:], ids, s.kind == aggMax, strings.Compare)
	}
	for j, g := range ids {
		a.counts[g] += o.counts[lo+j]
	}
}

// mergeExtreme is MIN's or MAX's merge: src's extreme of group j replaces
// dst's of group ids[j] when dst has none yet or src's beats it. It runs
// once per partial group, so cmp may be a function value.
func mergeExtreme[T any](dst, src []T, dcounts, scounts []int64, ids []uint32, max bool, cmp func(x, y T) int) {
	for j, g := range ids {
		if scounts[j] > 0 && (dcounts[g] == 0 || beats(cmp(src[j], dst[g]), max)) {
			dst[g] = src[j]
		}
	}
}

func cmpBool(x, y bool) int { return boolRank(x) - boolRank(y) }

// final appends the aggregate's results for groups [lo, hi) to dst: the
// count for COUNT, and for the rest NULL where a group folded no argument.
func (a *aggState) final(dst *row.Vector, lo, hi int) {
	s := a.spec
	for g := lo; g < hi; g++ {
		switch {
		case s.kind == aggCount:
			dst.AppendInt(a.counts[g])
		case a.counts[g] == 0:
			dst.AppendNull()
		case s.kind == aggAvg && s.argType == row.TypeInt:
			dst.AppendFloat(float64(a.ints[g]) / float64(a.counts[g]))
		case s.kind == aggAvg:
			dst.AppendFloat(a.floats[g] / float64(a.counts[g]))
		case s.argType == row.TypeInt:
			dst.AppendInt(a.ints[g])
		case s.argType == row.TypeFloat:
			dst.AppendFloat(a.floats[g])
		case s.argType == row.TypeBool:
			dst.AppendBool(a.bools[g])
		default:
			dst.AppendString(a.strs[g])
		}
	}
}

// overflowErr is the error a BIGINT SUM or AVG that left the int64 range
// fails the query with: the first merged group's, and within that group
// the first overflowing column in output order.
func overflowErr(cols []outputCol, states []aggState) error {
	first, kind := -1, aggSum
	for _, c := range cols {
		if c.aggIdx < 0 {
			continue
		}
		a := &states[c.aggIdx]
		if g := slices.Index(a.over, true); g >= 0 && (first < 0 || g < first) {
			first, kind = g, a.spec.kind
		}
	}
	switch {
	case first < 0:
		return nil
	case kind == aggAvg:
		return fmt.Errorf("sql: AVG overflows BIGINT")
	default:
		return fmt.Errorf("sql: SUM overflows BIGINT")
	}
}

// groupTable is the state of one aggregation — a partition's partial, or
// the head's merge of them: the hash table giving each group key a dense
// id, the groups' key cells in id order (first-seen order), gathered into
// sealed chunks when a group is first seen, and every aggregate's state
// by id.
type groupTable struct {
	ht   *HashTable
	keys *chunkWriter
	aggs []aggState
	view *row.ColBatch // scratch: the key vectors as a batch, to gather from

	ids   []uint32
	fresh []int32
}

// newGroupTable returns an empty group table whose hash table has room for
// groups keys before it grows.
func newGroupTable(n *planNode, groups int) *groupTable {
	t := &groupTable{ht: newHashTableFor(groups), keys: newChunkWriter(n.keyTypes, -1),
		aggs: make([]aggState, len(n.aggs)), view: row.NewColBatch(n.keyTypes)}
	for i, s := range n.aggs {
		t.aggs[i].spec = s
	}
	return t
}

// insert returns the group id of each row at pos of the key vectors keys
// (n rows long), in one pass: each row's key cells are packed by the
// vector key codec into one reused buffer and inserted, and a row whose
// key is new is kept. The new groups get their key cells gathered and
// their state grown.
func (t *groupTable) insert(keys []*row.Vector, n int, pos []int32) []uint32 {
	t.ids, t.fresh = t.ids[:0], t.fresh[:0]
	var buf [64]byte
	key := buf[:0]
	for _, p := range pos {
		key = key[:0]
		for _, kv := range keys {
			key = row.AppendVectorKey(key, kv, int(p))
		}
		id, added := t.ht.Insert(key)
		t.ids = append(t.ids, id)
		if added {
			t.fresh = append(t.fresh, p)
		}
	}
	if len(t.fresh) == 0 {
		return t.ids
	}
	for i, kv := range keys {
		t.view.SetCol(i, kv)
	}
	t.view.SetFullLen(n)
	t.keys.appendPositions(t.view, t.fresh)
	for i := range t.aggs {
		t.aggs[i].grow(t.ht.Len())
	}
	return t.ids
}

// aggregate evaluates a planned aggregate node over iters: streaming
// partial aggregation per partition on the query pool (a pipeline breaker,
// but one that holds O(groups) memory, never the full input), then a merge
// at the head node. The finalised groups are written as sealed chunks at
// partition 0.
//
// Partials stay partition-scoped rather than worker- or morsel-scoped on
// purpose: SUM/AVG over DOUBLE accumulate in floating point, where
// addition order is observable, so the partial boundaries must be a
// deterministic function of the input for the output to stay
// byte-identical at any Parallelism — and identical to the pre-pool
// engine, whose partials were also per partition.
func (e *Engine) aggregate(qp *queryPool, n *planNode, iters []ColBatchSource) ([][]*row.ColBatch, error) {
	partials := make([]*aggPartial, len(iters))
	err := qp.drain(iters, func(i int) (partSink, error) {
		partials[i] = &aggPartial{
			n: n, t: newGroupTable(n, 0),
			kvecs: make([]*row.Vector, len(n.fns)), avecs: make([]*row.Vector, len(n.aggs)),
		}
		return partials[i], nil
	})
	if err != nil {
		return nil, err
	}

	// Merge at the head node, charging the move of each partial: its key
	// chunks plus a fixed accumulator size per group. Each partial's key
	// chunks are re-inserted in partition order, so groups come out
	// partials in partition order, first-seen within. The partials' group
	// counts sum to at least the merged count, so the merge never grows
	// its hash table.
	groups := 0
	for _, p := range partials {
		groups += p.t.ht.Len()
	}
	m := newGroupTable(n, groups)
	cols := make([]*row.Vector, len(n.keyTypes))
	for i, p := range partials {
		chunks := p.t.keys.finish()
		if g := p.t.ht.Len(); e.workers[i] != e.head && g > 0 {
			e.cost.ChargeNet(e.workers[i], e.head, chunkBytes(chunks)+24*len(n.aggs)*g)
		}
		lo := 0
		for _, c := range chunks {
			for k := range cols {
				cols[k] = c.Col(k)
			}
			ids := m.insert(cols, c.FullLen(), c.LivePos())
			for ai := range m.aggs {
				m.aggs[ai].merge(&p.t.aggs[ai], lo, ids)
			}
			lo += c.FullLen()
		}
	}
	// A global aggregate (no GROUP BY) over zero rows yields one row: the
	// empty key's group, with nothing folded in.
	if len(n.exprs) == 0 && m.ht.Len() == 0 {
		m.insert(nil, 1, []int32{0})
	}
	if err := overflowErr(n.cols, m.aggs); err != nil {
		return nil, err
	}

	// Final: one output chunk per merged key chunk, its key columns copied
	// from the chunk and its aggregates written from the state slices.
	// (String slabs are left to grow: a key column's gather sizes its own.)
	types := row.SchemaTypes(n.schema)
	noPayload := make([]int, len(types))
	var out []*row.ColBatch
	lo := 0
	for _, kc := range m.keys.finish() {
		k, pos := kc.FullLen(), kc.LivePos()
		ob := row.NewColBatchCap(types, k, noPayload)
		for c, oc := range n.cols {
			if oc.keyIdx >= 0 {
				ob.Col(c).AppendGather(kc.Col(oc.keyIdx), pos)
			} else {
				m.aggs[oc.aggIdx].final(ob.Col(c), lo, lo+k)
			}
		}
		ob.SetFullLen(k)
		out = append(out, ob)
		lo += k
	}
	parts := make([][]*row.ColBatch, len(iters))
	parts[0] = out
	return parts, nil
}

// aggPartial is one partition's partial aggregation: it consumes the
// input batch by batch, accumulating only per-group state. Group keys and
// aggregate arguments are kernels evaluated column-wise per batch; each
// live row's key cells are packed into a reused buffer and inserted into
// the group table, and every aggregate then folds its argument vector
// into the groups in one loop.
type aggPartial struct {
	n     *planNode
	t     *groupTable
	ctx   vecCtx
	kvecs []*row.Vector
	avecs []*row.Vector
}

func (a *aggPartial) add(b *row.ColBatch) error {
	a.ctx.reclaim()
	for ki, fn := range a.n.fns {
		v, err := fn(&a.ctx, b, b.Sel())
		if err != nil {
			return err
		}
		a.kvecs[ki] = v
	}
	for ai, s := range a.n.aggs {
		if s.star {
			continue
		}
		v, err := s.arg(&a.ctx, b, b.Sel())
		if err != nil {
			return err
		}
		a.avecs[ai] = v
	}
	pos := b.LivePos()
	ids := a.t.insert(a.kvecs, b.FullLen(), pos)
	for ai := range a.t.aggs {
		a.t.aggs[ai].add(ids, a.avecs[ai], pos)
	}
	return nil
}

func (a *aggPartial) end(err error) error { return err }
