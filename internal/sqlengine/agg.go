package sqlengine

import (
	"fmt"
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

// aggState is one aggregate's running accumulation within one group.
type aggState struct {
	kind  aggKind
	count int64
	sumF  float64
	sumI  int64
	isInt bool
	minV  row.Value
	maxV  row.Value
	any   bool
	// overflow is sticky: a BIGINT sum left the int64 range in add or
	// merge, and finalize fails the query.
	overflow bool
}

// addInt adds x to the BIGINT sum, recording overflow.
func (a *aggState) addInt(x int64) {
	s, ok := addInt64(a.sumI, x)
	a.overflow = a.overflow || !ok
	a.sumI = s
}

func (a *aggState) add(v row.Value, star bool) {
	if a.kind == aggCount {
		if star || !v.Null {
			a.count++
		}
		return
	}
	if v.Null {
		return
	}
	a.any = true
	switch a.kind {
	case aggSum, aggAvg:
		a.count++
		if a.isInt {
			a.addInt(v.AsInt())
		} else {
			a.sumF += v.AsFloat()
		}
	case aggMin:
		if a.minV.Null || v.Compare(a.minV) < 0 {
			a.minV = v
		}
	case aggMax:
		if a.maxV.Null || v.Compare(a.maxV) > 0 {
			a.maxV = v
		}
	}
}

func (a *aggState) merge(o *aggState) {
	switch a.kind {
	case aggCount:
		a.count += o.count
	case aggSum, aggAvg:
		a.count += o.count
		a.addInt(o.sumI)
		a.overflow = a.overflow || o.overflow
		a.sumF += o.sumF
		a.any = a.any || o.any
	case aggMin:
		if o.any && (!a.any || o.minV.Compare(a.minV) < 0) {
			a.minV = o.minV
		}
		a.any = a.any || o.any
	case aggMax:
		if o.any && (!a.any || o.maxV.Compare(a.maxV) > 0) {
			a.maxV = o.maxV
		}
		a.any = a.any || o.any
	}
}

// err is the overflow a BIGINT SUM or AVG left behind, which fails the
// query.
func (a *aggState) err() error {
	switch {
	case !a.overflow:
		return nil
	case a.kind == aggAvg:
		return fmt.Errorf("sql: AVG overflows BIGINT")
	default:
		return fmt.Errorf("sql: SUM overflows BIGINT")
	}
}

func (a *aggState) finalize(t row.Type) row.Value {
	switch a.kind {
	case aggCount:
		return row.Int(a.count)
	case aggSum:
		if !a.any {
			return row.NullOf(t)
		}
		if a.isInt {
			return row.Int(a.sumI)
		}
		return row.Float(a.sumF)
	case aggAvg:
		if a.count == 0 {
			return row.NullOf(row.TypeFloat)
		}
		total := a.sumF
		if a.isInt {
			total = float64(a.sumI)
		}
		return row.Float(total / float64(a.count))
	case aggMin:
		if !a.any {
			return row.NullOf(t)
		}
		return a.minV
	default:
		if !a.any {
			return row.NullOf(t)
		}
		return a.maxV
	}
}

// aggSpec is one aggregate column of the output.
type aggSpec struct {
	call    *FuncCall // the call as written
	kind    aggKind
	star    bool
	arg     vecFn // the argument's kernel; nil for COUNT(*)
	argType row.Type
	outType row.Type
}

func (s *aggSpec) newState() *aggState {
	st := &aggState{kind: s.kind, isInt: s.argType == row.TypeInt}
	st.minV = row.NullOf(s.argType)
	st.maxV = row.NullOf(s.argType)
	return st
}

// outputCol describes one select item of an aggregate query: either a
// group-by key (keyIdx >= 0) or an aggregate (aggIdx >= 0).
type outputCol struct {
	keyIdx int
	aggIdx int
}

// group is one group's key values and accumulators.
type group struct {
	keys row.Row
	aggs []*aggState
}

func newGroup(specs []*aggSpec, keys row.Row) *group {
	g := &group{keys: keys, aggs: make([]*aggState, len(specs))}
	for i, s := range specs {
		g.aggs[i] = s.newState()
	}
	return g
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
			n: n, ht: NewHashTable(),
			kvecs: make([]*row.Vector, len(n.fns)), avecs: make([]*row.Vector, len(n.aggs)),
		}
		return partials[i], nil
	})
	if err != nil {
		return nil, err
	}

	// Merge at the head node (charge moving the partial states, approximated
	// by their key bytes plus a fixed accumulator size). Groups come out in
	// deterministic order: partials in partition order, first-seen within.
	mergedHT := NewHashTable()
	var merged []*group
	var keyBuf []byte
	for i, p := range partials {
		if e.workers[i] != e.head && len(p.groups) > 0 {
			bytes := 0
			for _, g := range p.groups {
				bytes += rowBytes(g.keys) + 24*len(n.aggs)
			}
			e.cost.ChargeNet(e.workers[i], e.head, bytes)
		}
		for _, g := range p.groups {
			keyBuf = row.AppendKey(keyBuf[:0], g.keys)
			idx, added := mergedHT.Insert(keyBuf)
			if added {
				merged = append(merged, g)
				continue
			}
			mg := merged[idx]
			for si := range n.aggs {
				mg.aggs[si].merge(g.aggs[si])
			}
		}
	}

	// A global aggregate (no GROUP BY) over zero rows yields one row.
	if len(n.exprs) == 0 && len(merged) == 0 {
		merged = append(merged, newGroup(n.aggs, row.Row{}))
	}

	for _, g := range merged {
		for _, c := range n.cols {
			if c.aggIdx >= 0 {
				if err := g.aggs[c.aggIdx].err(); err != nil {
					return nil, err
				}
			}
		}
	}
	w := newChunkWriter(row.SchemaTypes(n.schema), len(merged))
	w.appendCells(len(merged), func(i, c int) row.Value {
		g, oc := merged[i], n.cols[c]
		if oc.keyIdx >= 0 {
			return g.keys[oc.keyIdx]
		}
		return g.aggs[oc.aggIdx].finalize(n.aggs[oc.aggIdx].outType)
	})
	parts := make([][]*row.ColBatch, len(iters))
	parts[0] = w.finish()
	return parts, nil
}

// aggPartial is one partition's partial aggregation: it consumes the
// input batch by batch, accumulating only per-group state. Group keys and
// aggregate arguments are kernels evaluated column-wise per batch; the
// arena hash table maps each row's key bytes (encoded cell-by-cell with the
// vector key codec and packed per batch into a reused buffer) to a dense
// group index, and the key values are materialized into a row only when a
// new group is created.
type aggPartial struct {
	n      *planNode
	ht     *HashTable
	groups []*group
	ctx    vecCtx
	kvecs  []*row.Vector
	avecs  []*row.Vector
	flat   []byte
	offs   []uint32
	idxs   []uint32
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
	k := b.Len()
	a.flat = a.flat[:0]
	a.offs = append(a.offs[:0], 0)
	for si := 0; si < k; si++ {
		p := b.SelPos(si)
		for _, kv := range a.kvecs {
			a.flat = row.AppendVectorKey(a.flat, kv, p)
		}
		a.offs = append(a.offs, uint32(len(a.flat)))
	}
	a.idxs = a.ht.InsertKeys(a.flat, a.offs, a.idxs[:0])
	for si := 0; si < k; si++ {
		p := b.SelPos(si)
		var g *group
		if int(a.idxs[si]) == len(a.groups) {
			gk := make(row.Row, len(a.kvecs))
			for ki, kv := range a.kvecs {
				gk[ki] = kv.ValueAt(p)
			}
			g = newGroup(a.n.aggs, gk)
			a.groups = append(a.groups, g)
		} else {
			g = a.groups[a.idxs[si]]
		}
		for ai, s := range a.n.aggs {
			var v row.Value
			if !s.star {
				v = a.avecs[ai].ValueAt(p)
			}
			g.aggs[ai].add(v, s.star)
		}
	}
	return nil
}

func (a *aggPartial) end(err error) error { return err }
