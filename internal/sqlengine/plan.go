package sqlengine

import (
	"fmt"
	"slices"
	"strings"

	"sqlml/internal/row"
)

// A SELECT runs in two passes over one operator tree. plan resolves every
// name the statement uses — tables, table functions, columns, types, join
// keys and aggregates — places every predicate and compiles every kernel.
// It opens no table and starts nothing, so a statement that fails to plan
// leaves every source as it found it, a streaming table's one-shot
// pipeline included. build (build.go) turns the tree into per-partition
// pipelines and runs its pipeline breakers, so it fails only on data.

// nodeKind is a plan node's operator.
type nodeKind int

const (
	nodeScan      nodeKind = iota // a catalog table
	nodeTableFunc                 // TABLE(f(...)) over in, the scan of its table argument (nil without one)
	nodeFilter                    // a WHERE conjunction over in
	nodeJoin                      // in probes a hash table built over right; no keys is the cartesian join
	nodeProject                   // the select list
	nodeAggregate                 // GROUP BY and the select list's aggregates, or DISTINCT
	nodeHaving                    // HAVING over the aggregate's output columns
	nodeOrder
	nodeLimit
)

// planNode is one operator of a planned SELECT; which fields are set
// depends on kind. exprs are what the kernels fns compute: a filter's
// predicate, a join's probe keys (rightExprs its build keys), the select
// list with stars expanded, the GROUP BY keys (for DISTINCT, the columns
// of in's output) or the ORDER BY keys.
type planNode struct {
	kind   nodeKind
	in     *planNode
	right  *planNode  // join: the build side, one FROM source
	schema row.Schema // output columns
	sc     *scope     // resolves column references over the output

	table *Table      // scan
	udf   *TableUDF   // table function
	args  []row.Value // table function: its literal arguments

	exprs      []Expr
	fns        []vecFn
	rightExprs []Expr
	rightFns   []vecFn

	// join: the columns of in's output and of right's that the output
	// keeps, ascending — those some node above the join reads.
	probeCols, buildCols []int

	aggs     []*aggSpec  // aggregate: one per aggregate call
	keyTypes []row.Type  // aggregate: one per GROUP BY key
	cols     []outputCol // aggregate: one per output column
	specs    []orderSpec // order: one per key
	limit    int
}

// derive returns a node of the given kind over in, with in's output.
func derive(kind nodeKind, in *planNode) *planNode {
	return &planNode{kind: kind, in: in, schema: in.schema, sc: in.sc}
}

// outputScope resolves names over a select list's output columns, the way
// HAVING and ORDER BY see them.
func outputScope(schema row.Schema) *scope {
	return &scope{bindings: []binding{{schema: schema}}}
}

// plan resolves sel into its operator tree. The FROM sources join
// left-deep in FROM order. A WHERE conjunct over one source filters that
// source (a constant one filters source 0), an equality between the
// sources joined so far and the next one is a key of that join, and every
// other conjunct filters the joined rows. A join keeps only the columns
// read above it: by the select list, the GROUP BY keys and aggregate
// arguments, the conjuncts over the joined rows, and the keys of later
// joins.
func (e *Engine) plan(sel *SelectStmt) (*planNode, error) {
	if len(sel.From) == 0 {
		return nil, fmt.Errorf("sql: SELECT requires a FROM clause")
	}
	all := newScope() // every FROM source, to place the WHERE conjuncts
	srcs := make([]*planNode, len(sel.From))
	for i, item := range sel.From {
		src, err := e.planSource(item)
		if err != nil {
			return nil, err
		}
		if err := all.add(item.Name(), src.schema); err != nil {
			return nil, err
		}
		src.sc = &scope{bindings: []binding{{name: all.bindings[i].name, schema: src.schema}}}
		srcs[i] = src
	}

	// span is the range of FROM sources ex reads: lo > hi when it reads none.
	span := func(ex Expr) (lo, hi int, err error) {
		lo, hi = len(srcs), -1
		err = all.columnsOf(func(si, _ int) { lo, hi = min(lo, si), max(hi, si) }, ex)
		return lo, hi, err
	}

	type conjunct struct {
		ex     Expr
		lo, hi int
		used   bool
	}
	var conjs []*conjunct
	for _, ex := range Conjuncts(sel.Where) {
		lo, hi, err := span(ex)
		if err != nil {
			return nil, err
		}
		conjs = append(conjs, &conjunct{ex: ex, lo: lo, hi: hi})
	}

	for si := range srcs {
		var push []Expr
		for _, c := range conjs {
			if !c.used && (c.lo == si && c.hi == si || c.hi < 0 && si == 0) {
				push = append(push, c.ex)
				c.used = true
			}
		}
		if len(push) > 0 {
			f, err := e.planFilter(nodeFilter, srcs[si], AndAll(push))
			if err != nil {
				return nil, err
			}
			srcs[si] = f
		}
	}

	// A key of join next equates an operand over the sources joined so far
	// with one over source next alone.
	probeKeys := make([][]Expr, len(srcs))
	buildKeys := make([][]Expr, len(srcs))
	for next := 1; next < len(srcs); next++ {
		for _, c := range conjs {
			b, ok := c.ex.(*BinOp)
			if c.used || !ok || b.Op != "=" || c.hi != next {
				continue
			}
			ll, lh, err := span(b.L)
			if err != nil {
				return nil, err
			}
			rl, rh, err := span(b.R)
			if err != nil {
				return nil, err
			}
			switch {
			case lh >= 0 && lh < next && rl == next:
				probeKeys[next], buildKeys[next] = append(probeKeys[next], b.L), append(buildKeys[next], b.R)
			case rh >= 0 && rh < next && ll == next:
				probeKeys[next], buildKeys[next] = append(probeKeys[next], b.R), append(buildKeys[next], b.L)
			default:
				continue
			}
			c.used = true
		}
	}

	var residual []Expr
	for _, c := range conjs {
		if !c.used {
			residual = append(residual, c.ex)
		}
	}
	hasAgg := len(sel.GroupBy) > 0 || slices.ContainsFunc(sel.Items, func(it SelectItem) bool {
		return it.Expr != nil && exprHasAggregate(it.Expr)
	})

	cur := srcs[0]
	if len(srcs) > 1 {
		lastRead, err := lastReads(sel, hasAgg, all, residual, probeKeys)
		if err != nil {
			return nil, err
		}
		// cols[si] lists the columns of source si that cur's output holds,
		// by index in the source's schema.
		cols := perSource(all)
		for _, c := range cols {
			for ci := range c {
				c[ci] = ci
			}
		}
		for next := 1; next < len(srcs); next++ {
			keep := func(si, ci int) bool { return lastRead[si][ci] > next }
			if cur, err = e.planJoin(cur, srcs[next], probeKeys[next], buildKeys[next], cols, keep); err != nil {
				return nil, err
			}
		}
	}

	var err error
	if len(residual) > 0 {
		if cur, err = e.planFilter(nodeFilter, cur, AndAll(residual)); err != nil {
			return nil, err
		}
	}
	if hasAgg {
		cur, err = e.planAggregate(sel, cur)
	} else {
		cur, err = e.planProject(sel.Items, cur)
	}
	if err != nil {
		return nil, err
	}
	if sel.Having != nil {
		if !hasAgg {
			return nil, fmt.Errorf("sql: HAVING requires GROUP BY or aggregates")
		}
		if cur, err = e.planFilter(nodeHaving, cur, sel.Having); err != nil {
			return nil, err
		}
	}
	if sel.Distinct {
		cur = planDistinct(cur)
	}
	if len(sel.OrderBy) > 0 {
		n := derive(nodeOrder, cur)
		for _, it := range sel.OrderBy {
			n.exprs = append(n.exprs, it.Expr)
			n.specs = append(n.specs, orderSpec{desc: it.Desc})
		}
		if n.fns, _, err = vecExprs(n.exprs, n.sc, e.registry); err != nil {
			return nil, err
		}
		cur = n
	}
	if sel.Limit >= 0 {
		cur = derive(nodeLimit, cur)
		cur.limit = sel.Limit
	}
	return cur, nil
}

// lastReads resolves over the FROM scope all every column reference a
// node above the joins compiles, and returns lastRead[si][ci]: the last
// join whose probe keys read column ci of source si; len(all.bindings)
// when a node above every join reads it — a residual conjunct, the select
// list, a GROUP BY key or an aggregate argument; 0 when nothing above a
// join reads it. A star reads every column of its bindings. Join j keeps
// the columns whose lastRead exceeds j.
func lastReads(sel *SelectStmt, hasAgg bool, all *scope, residual []Expr, probeKeys [][]Expr) ([][]int, error) {
	lastRead := perSource(all)
	read := func(stage int, exprs ...Expr) error {
		if len(exprs) == 0 {
			return nil
		}
		return all.columnsOf(func(si, ci int) { lastRead[si][ci] = max(lastRead[si][ci], stage) }, exprs...)
	}
	for j, keys := range probeKeys {
		if err := read(j, keys...); err != nil {
			return nil, err
		}
	}
	// Above every join: the residual conjuncts and what the select list's
	// node compiles — planAggregate compiles the GROUP BY keys and each
	// aggregate's one argument (every other item must repeat a key).
	top := len(all.bindings)
	above := append(make([]Expr, 0, len(residual)+len(sel.GroupBy)+len(sel.Items)), residual...)
	if hasAgg {
		above = append(above, sel.GroupBy...)
	}
	for _, item := range sel.Items {
		switch fc, isCall := item.Expr.(*FuncCall); {
		case item.Star:
			q := strings.ToLower(item.StarQualifier)
			for si, bd := range all.bindings {
				if q == "" || bd.name == q {
					for ci := range lastRead[si] {
						lastRead[si][ci] = top
					}
				}
			}
		case !hasAgg:
			above = append(above, item.Expr)
		case isCall && isAggregateName(fc.Name) && len(fc.Args) == 1:
			above = append(above, fc.Args[0])
		}
	}
	if err := read(top, above...); err != nil {
		return nil, err
	}
	return lastRead, nil
}

// perSource returns one zeroed list per binding of all, an entry per
// column, over one backing array.
func perSource(all *scope) [][]int {
	flat := make([]int, all.width())
	lists := make([][]int, len(all.bindings))
	for si, bd := range all.bindings {
		n := bd.schema.Len()
		lists[si], flat = flat[:n:n], flat[n:]
	}
	return lists
}

// planSource resolves one FROM item, a catalog table or a table function
// call.
func (e *Engine) planSource(item FromItem) (*planNode, error) {
	if item.Func != nil {
		return e.planTableFunc(item.Func)
	}
	t, err := e.catalog.Get(item.Table)
	if err != nil {
		return nil, err
	}
	return &planNode{kind: nodeScan, table: t, schema: t.Schema}, nil
}

// planTableFunc resolves TABLE(f(...)): the function, its one optional
// table argument and its literal arguments, and derives its output schema
// (TableUDF.OutSchema).
func (e *Engine) planTableFunc(call *TableFuncCall) (*planNode, error) {
	udf, ok := e.registry.Table(call.Name)
	if !ok {
		return nil, fmt.Errorf("sql: unknown table function %q", call.Name)
	}
	n := &planNode{kind: nodeTableFunc, udf: udf}
	var inSchema row.Schema
	for _, a := range call.Args {
		if a.Table == "" {
			n.args = append(n.args, a.Lit.V)
			continue
		}
		if n.in != nil {
			return nil, fmt.Errorf("sql: table function %q takes at most one table argument", call.Name)
		}
		t, err := e.catalog.Get(a.Table)
		if err != nil {
			return nil, err
		}
		n.in, inSchema = &planNode{kind: nodeScan, table: t, schema: t.Schema}, t.Schema
	}
	out, err := udf.OutSchema(inSchema, n.args)
	if err != nil {
		return nil, fmt.Errorf("sql: %s: %w", udf.Name, err)
	}
	n.schema = out
	return n, nil
}

// planFilter compiles the predicate ex over in's output.
func (e *Engine) planFilter(kind nodeKind, in *planNode, ex Expr) (*planNode, error) {
	pred, t, err := compileVec(ex, in.sc, e.registry)
	if err != nil {
		return nil, err
	}
	if t != row.TypeBool {
		return nil, fmt.Errorf("sql: predicate must be BOOLEAN, got %s", t)
	}
	n := derive(kind, in)
	n.exprs, n.fns = []Expr{ex}, []vecFn{pred}
	return n, nil
}

// planJoin joins right, the next FROM source, onto left, the sources
// joined so far: the build keys compile over right, the probe keys over
// left, and the output binds left's sources then right's, in FROM order,
// each narrowed to the columns keep(source, column) accepts. cols[s] lists
// by index in source s's schema the columns of s that left holds (that
// right holds, for right's source); planJoin narrows it to those the
// output holds.
func (e *Engine) planJoin(left, right *planNode, probeKeys, buildKeys []Expr, cols [][]int, keep func(si, ci int) bool) (*planNode, error) {
	rightFns, _, err := vecExprs(buildKeys, right.sc, e.registry)
	if err != nil {
		return nil, err
	}
	fns, _, err := vecExprs(probeKeys, left.sc, e.registry)
	if err != nil {
		return nil, err
	}
	last := len(left.sc.bindings)
	n := &planNode{
		kind: nodeJoin, in: left, right: right, sc: &scope{bindings: make([]binding, last+1)},
		exprs: probeKeys, fns: fns, rightExprs: buildKeys, rightFns: rightFns,
		probeCols: make([]int, 0, left.sc.width()), buildCols: make([]int, 0, right.sc.width()),
	}
	width := 0
	for si := range n.sc.bindings {
		bd := right.sc.bindings[0]
		if si < last {
			bd = left.sc.bindings[si]
		}
		nb := &n.sc.bindings[si]
		nb.name, nb.offset = bd.name, width
		nb.schema.Cols = make([]row.Column, 0, len(cols[si]))
		kept := cols[si][:0] // narrowed in place: the write never passes k
		for k, ci := range cols[si] {
			if !keep(si, ci) {
				continue
			}
			nb.schema.Cols = append(nb.schema.Cols, bd.schema.Cols[k])
			kept = append(kept, ci)
			if si < last {
				n.probeCols = append(n.probeCols, bd.offset+k)
			} else {
				n.buildCols = append(n.buildCols, k)
			}
		}
		cols[si] = kept
		width += len(kept)
	}
	n.schema = n.sc.combined()
	return n, nil
}

// planProject compiles the select list over in into one kernel per output
// column. A star column is a passthrough kernel (zero-copy: the output
// batch adopts the input vector header).
func (e *Engine) planProject(items []SelectItem, in *planNode) (*planNode, error) {
	n := &planNode{kind: nodeProject, in: in}
	var names []string
	var types []row.Type
	for _, item := range items {
		if !item.Star {
			fn, t, err := compileVec(item.Expr, in.sc, e.registry)
			if err != nil {
				return nil, err
			}
			n.exprs, n.fns = append(n.exprs, item.Expr), append(n.fns, fn)
			names, types = append(names, outputName(item)), append(types, t)
			continue
		}
		q := strings.ToLower(item.StarQualifier)
		matched := false
		for _, bd := range in.sc.bindings {
			if q != "" && bd.name != q {
				continue
			}
			matched = true
			for ci, col := range bd.schema.Cols {
				idx := bd.offset + ci
				n.exprs = append(n.exprs, &ColRef{Qualifier: bd.name, Name: col.Name})
				n.fns = append(n.fns, func(c *vecCtx, b *row.ColBatch, pos []int32) (*row.Vector, error) {
					return b.Col(idx), nil
				})
				names, types = append(names, col.Name), append(types, col.Type)
			}
		}
		if !matched {
			return nil, fmt.Errorf("sql: unknown binding %q in star expansion", item.StarQualifier)
		}
	}
	schema, err := makeOutputSchema(names, types)
	if err != nil {
		return nil, err
	}
	n.schema, n.sc = schema, outputScope(schema)
	return n, nil
}

// planAggregate compiles GROUP BY and the aggregate select list over in.
// Group keys and aggregate arguments are kernels; every non-aggregate item
// must be a GROUP BY expression, and takes the key's values and type.
func (e *Engine) planAggregate(sel *SelectStmt, in *planNode) (*planNode, error) {
	keyFns, keyTypes, err := vecExprs(sel.GroupBy, in.sc, e.registry)
	if err != nil {
		return nil, err
	}
	n := &planNode{kind: nodeAggregate, in: in, exprs: sel.GroupBy, fns: keyFns, keyTypes: keyTypes}
	names := make([]string, len(sel.Items))
	types := make([]row.Type, len(sel.Items))
	for i, item := range sel.Items {
		if item.Star {
			return nil, fmt.Errorf("sql: * not allowed with GROUP BY / aggregates")
		}
		names[i] = outputName(item)
		if fc, ok := item.Expr.(*FuncCall); ok && isAggregateName(fc.Name) {
			kind, _ := aggKindOf(fc.Name)
			spec := &aggSpec{kind: kind, star: fc.Star, call: fc}
			if !fc.Star {
				if len(fc.Args) != 1 {
					return nil, fmt.Errorf("sql: %s takes one argument", strings.ToUpper(fc.Name))
				}
				fn, t, err := compileVec(fc.Args[0], in.sc, e.registry)
				if err != nil {
					return nil, err
				}
				if (kind == aggSum || kind == aggAvg) && !numericType(t) {
					return nil, fmt.Errorf("sql: %s requires a numeric argument", strings.ToUpper(fc.Name))
				}
				spec.arg = fn
				spec.argType = t
			} else if kind != aggCount {
				return nil, fmt.Errorf("sql: only COUNT may use *")
			}
			switch kind {
			case aggCount:
				types[i] = row.TypeInt
			case aggAvg:
				types[i] = row.TypeFloat
			default:
				types[i] = spec.argType
			}
			n.aggs = append(n.aggs, spec)
			n.cols = append(n.cols, outputCol{keyIdx: -1, aggIdx: len(n.aggs) - 1})
			continue
		}
		matched := slices.IndexFunc(sel.GroupBy, func(g Expr) bool { return item.Expr.String() == g.String() })
		if matched < 0 {
			return nil, fmt.Errorf("sql: %s is neither an aggregate nor in GROUP BY", item.Expr)
		}
		n.cols = append(n.cols, outputCol{keyIdx: matched, aggIdx: -1})
		types[i] = keyTypes[matched]
	}
	schema, err := makeOutputSchema(names, types)
	if err != nil {
		return nil, err
	}
	n.schema, n.sc = schema, outputScope(schema)
	return n, nil
}

// planDistinct plans SELECT DISTINCT over in as a GROUP BY of every
// output column with no aggregates: one identity kernel per column, and
// column i is key i. Its groups, each key once in first-seen order, are
// the distinct rows.
func planDistinct(in *planNode) *planNode {
	n := derive(nodeAggregate, in)
	n.keyTypes = row.SchemaTypes(in.schema)
	for i, col := range in.schema.Cols {
		n.exprs = append(n.exprs, &ColRef{Name: col.Name})
		n.fns = append(n.fns, func(_ *vecCtx, b *row.ColBatch, _ []int32) (*row.Vector, error) { return b.Col(i), nil })
		n.cols = append(n.cols, outputCol{keyIdx: i, aggIdx: -1})
	}
	return n
}

func outputName(item SelectItem) string {
	if item.Alias != "" {
		return item.Alias
	}
	switch x := item.Expr.(type) {
	case *ColRef:
		return x.Name
	case *FuncCall:
		return strings.ToLower(x.Name)
	default:
		return "expr"
	}
}

// makeOutputSchema builds a schema, de-duplicating column names by
// suffixing _2, _3, ...
func makeOutputSchema(names []string, types []row.Type) (row.Schema, error) {
	seen := make(map[string]int)
	cols := make([]row.Column, len(names))
	for i, n := range names {
		base := strings.ToLower(n)
		seen[base]++
		if seen[base] > 1 {
			n = fmt.Sprintf("%s_%d", n, seen[base])
		}
		cols[i] = row.Column{Name: n, Type: types[i]}
	}
	return row.NewSchema(cols...)
}
