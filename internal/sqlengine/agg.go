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
	name   string
	typ    row.Type
}

// execAggregate evaluates an aggregate query: streaming partial
// aggregation per partition on the query pool (a pipeline breaker, but
// one that holds O(groups) memory, never the full input), then a merge at
// the head node. The finalised groups are written as sealed chunks at
// partition 0.
//
// Partials stay partition-scoped rather than worker- or morsel-scoped on
// purpose: SUM/AVG over DOUBLE accumulate in floating point, where
// addition order is observable, so the partial boundaries must be a
// deterministic function of the input for the output to stay
// byte-identical at any Parallelism — and identical to the pre-pool
// engine, whose partials were also per partition.
func (e *Engine) execAggregate(qp *queryPool, sel *SelectStmt, in *dataset) (row.Schema, [][]*row.ColBatch, error) {
	// Group keys and aggregate arguments are kernels evaluated column-wise
	// per batch; keys are encoded cell-by-cell with the vector key codec
	// and inserted through the column-at-a-time InsertKeys entry point.
	keyFns, keyTypes, err := vecExprs(sel.GroupBy, in.sc, e.registry)
	if err != nil {
		return row.Schema{}, nil, err
	}

	// Classify select items.
	var cols []outputCol
	var specs []*aggSpec
	for _, item := range sel.Items {
		if item.Star {
			return row.Schema{}, nil, fmt.Errorf("sql: * not allowed with GROUP BY / aggregates")
		}
		if fc, ok := item.Expr.(*FuncCall); ok && isAggregateName(fc.Name) {
			kind, _ := aggKindOf(fc.Name)
			spec := &aggSpec{kind: kind, star: fc.Star}
			if !fc.Star {
				if len(fc.Args) != 1 {
					return row.Schema{}, nil, fmt.Errorf("sql: %s takes one argument", strings.ToUpper(fc.Name))
				}
				fn, t, err := compileVec(fc.Args[0], in.sc, e.registry)
				if err != nil {
					return row.Schema{}, nil, err
				}
				if (kind == aggSum || kind == aggAvg) && !numericType(t) {
					return row.Schema{}, nil, fmt.Errorf("sql: %s requires a numeric argument", strings.ToUpper(fc.Name))
				}
				spec.arg = fn
				spec.argType = t
			} else if kind != aggCount {
				return row.Schema{}, nil, fmt.Errorf("sql: only COUNT may use *")
			}
			switch kind {
			case aggCount:
				spec.outType = row.TypeInt
			case aggAvg:
				spec.outType = row.TypeFloat
			default:
				spec.outType = spec.argType
			}
			specs = append(specs, spec)
			cols = append(cols, outputCol{keyIdx: -1, aggIdx: len(specs) - 1, name: outputName(item), typ: spec.outType})
			continue
		}
		// A non-aggregate item must match a GROUP BY expression; it takes
		// the key's values, so it takes the key's type too.
		matched := -1
		for ki, g := range sel.GroupBy {
			if item.Expr.String() == g.String() {
				matched = ki
				break
			}
		}
		if matched < 0 {
			return row.Schema{}, nil, fmt.Errorf("sql: %s is neither an aggregate nor in GROUP BY", item.Expr)
		}
		cols = append(cols, outputCol{keyIdx: matched, aggIdx: -1, name: outputName(item), typ: keyTypes[matched]})
	}

	type group struct {
		keys row.Row
		aggs []*aggState
	}
	newGroup := func(keys row.Row) *group {
		g := &group{keys: keys, aggs: make([]*aggState, len(specs))}
		for i, s := range specs {
			g.aggs[i] = s.newState()
		}
		return g
	}

	// Streaming partial aggregation per partition: consume the input
	// pipeline batch-by-batch, accumulating only per-group state. The
	// arena hash table maps each row's key bytes (packed per batch into a
	// reused buffer) to a dense group index; the key values are
	// materialized into a row only when a new group is created.
	primeIters(in.iters)
	partials := make([][]*group, len(in.iters))
	err = qp.forEach(len(in.iters), func(i, _ int) error {
		cit := in.iters[i]
		defer cit.Close()
		ht := NewHashTable()
		var groups []*group
		var ctx vecCtx
		kvecs := make([]*row.Vector, len(keyFns))
		avecs := make([]*row.Vector, len(specs))
		var flat []byte
		var offs []uint32
		var idxs []uint32
		for {
			if qp.cancelled() {
				return errQueryCancelled
			}
			b, ok, err := cit.NextCol()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			ctx.reclaim()
			for ki, fn := range keyFns {
				v, err := fn(&ctx, b, b.Sel())
				if err != nil {
					return err
				}
				kvecs[ki] = v
			}
			for ai, s := range specs {
				if s.star {
					continue
				}
				v, err := s.arg(&ctx, b, b.Sel())
				if err != nil {
					return err
				}
				avecs[ai] = v
			}
			k := b.Len()
			flat = flat[:0]
			offs = append(offs[:0], 0)
			for si := 0; si < k; si++ {
				p := b.SelPos(si)
				for _, kv := range kvecs {
					flat = row.AppendVectorKey(flat, kv, p)
				}
				offs = append(offs, uint32(len(flat)))
			}
			idxs = ht.InsertKeys(flat, offs, idxs[:0])
			for si := 0; si < k; si++ {
				p := b.SelPos(si)
				var g *group
				if int(idxs[si]) == len(groups) {
					gk := make(row.Row, len(kvecs))
					for ki, kv := range kvecs {
						gk[ki] = kv.ValueAt(p)
					}
					g = newGroup(gk)
					groups = append(groups, g)
				} else {
					g = groups[idxs[si]]
				}
				for ai, s := range specs {
					var v row.Value
					if !s.star {
						v = avecs[ai].ValueAt(p)
					}
					g.aggs[ai].add(v, s.star)
				}
			}
		}
		partials[i] = groups
		return nil
	})
	if err != nil {
		closeAllIters(in.iters)
		return row.Schema{}, nil, err
	}

	// Merge at the head node (charge moving the partial states, approximated
	// by their key bytes plus a fixed accumulator size). Groups come out in
	// deterministic order: partials in partition order, first-seen within.
	mergedHT := NewHashTable()
	var merged []*group
	var keyBuf []byte
	for i, groups := range partials {
		if e.workers[i] != e.head && len(groups) > 0 {
			bytes := 0
			for _, g := range groups {
				bytes += rowBytes(g.keys) + 24*len(specs)
			}
			e.cost.ChargeNet(e.workers[i], e.head, bytes)
		}
		for _, g := range groups {
			keyBuf = row.AppendKey(keyBuf[:0], g.keys)
			idx, added := mergedHT.Insert(keyBuf)
			if added {
				merged = append(merged, g)
				continue
			}
			mg := merged[idx]
			for si := range specs {
				mg.aggs[si].merge(g.aggs[si])
			}
		}
	}

	// A global aggregate (no GROUP BY) over zero rows yields one row.
	if len(sel.GroupBy) == 0 && len(merged) == 0 {
		merged = append(merged, newGroup(row.Row{}))
	}

	names := make([]string, len(cols))
	types := make([]row.Type, len(cols))
	for i, c := range cols {
		names[i] = c.name
		types[i] = c.typ
	}
	schema, err := makeOutputSchema(names, types)
	if err != nil {
		return row.Schema{}, nil, err
	}

	for _, g := range merged {
		for _, c := range cols {
			if c.aggIdx >= 0 {
				if err := g.aggs[c.aggIdx].err(); err != nil {
					return row.Schema{}, nil, err
				}
			}
		}
	}
	w := newChunkWriter(types, len(merged))
	w.appendCells(len(merged), func(i, c int) row.Value {
		g, oc := merged[i], cols[c]
		if oc.keyIdx >= 0 {
			return g.keys[oc.keyIdx]
		}
		return g.aggs[oc.aggIdx].finalize(specs[oc.aggIdx].outType)
	})
	n := len(in.iters)
	if n == 0 {
		n = e.NumWorkers()
	}
	parts := make([][]*row.ColBatch, n)
	parts[0] = w.finish()
	return schema, parts, nil
}
