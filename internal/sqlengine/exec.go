package sqlengine

import (
	"fmt"
	"strings"

	"sqlml/internal/cluster"
	"sqlml/internal/dfs"
	"sqlml/internal/hadoopfmt"
	"sqlml/internal/row"
)

// Run parses and executes one statement. SELECT (and CREATE TABLE AS
// SELECT) return a materialized result; DDL and INSERT return nil.
func (e *Engine) Run(sql string) (*Result, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	switch s := stmt.(type) {
	case *SelectStmt:
		res, err := e.ExecSelect(s)
		if err != nil {
			return nil, err
		}
		if err := res.Materialize(); err != nil {
			return nil, err
		}
		return res, nil
	case *CreateTableStmt:
		return nil, e.execCreate(s)
	case *InsertStmt:
		return nil, e.execInsert(s)
	case *DropTableStmt:
		return nil, e.catalog.Drop(s.Name)
	case *ShowTablesStmt:
		return e.showTables()
	case *DescribeStmt:
		return e.describe(s.Table)
	default:
		return nil, fmt.Errorf("sql: unsupported statement %T", stmt)
	}
}

// Query executes a SELECT statement given as SQL text and materializes the
// result, so runtime errors surface here (the pre-pipelining contract).
func (e *Engine) Query(sql string) (*Result, error) {
	res, err := e.QueryStream(sql)
	if err != nil {
		return nil, err
	}
	if err := res.Materialize(); err != nil {
		return nil, err
	}
	return res, nil
}

// QueryStream executes a SELECT and returns a streaming result: per-worker
// batch pipelines that run as the caller consumes Batches(). Plan-time
// errors (unknown tables/columns, type errors) still surface here; row
// production errors surface from the iterators.
func (e *Engine) QueryStream(sql string) (*Result, error) {
	sel, err := ParseSelect(sql)
	if err != nil {
		return nil, err
	}
	return e.ExecSelect(sel)
}

func (e *Engine) execCreate(s *CreateTableStmt) error {
	if s.AsSelect != nil {
		res, err := e.ExecSelect(s.AsSelect)
		if err != nil {
			return err
		}
		parts, err := res.chunkParts()
		if err != nil {
			return err
		}
		return e.putChunks(s.Name, res.Schema, parts)
	}
	schema, err := row.NewSchema(s.Cols...)
	if err != nil {
		return err
	}
	return e.CreateTable(s.Name, schema)
}

func (e *Engine) execInsert(s *InsertStmt) error {
	t, err := e.catalog.Get(s.Table)
	if err != nil {
		return err
	}
	if t.External != nil {
		return fmt.Errorf("sql: cannot INSERT into external table %q", t.Name)
	}
	if t.streaming {
		return fmt.Errorf("sql: cannot INSERT into streaming table %q", t.Name)
	}
	empty := newScope()
	var rows []row.Row
	for _, exprs := range s.Rows {
		if len(exprs) != t.Schema.Len() {
			return fmt.Errorf("sql: INSERT arity %d does not match table %q arity %d", len(exprs), t.Name, t.Schema.Len())
		}
		out := make(row.Row, len(exprs))
		for i, ex := range exprs {
			fn, _, err := compileVec(ex, empty, e.registry)
			if err != nil {
				return err
			}
			v, err := evalConst(fn)
			if err != nil {
				return err
			}
			cv, err := v.Coerce(t.Schema.Cols[i].Type)
			if err != nil {
				return fmt.Errorf("sql: column %q: %w", t.Schema.Cols[i].Name, err)
			}
			out[i] = cv
		}
		rows = append(rows, out)
	}
	t.appendRows(rows, e.NumWorkers())
	return nil
}

// appendRows distributes new rows round-robin over partitions. It
// publishes new partition slices (appendChunkRows) and writes no published
// chunk, so a scan already open keeps reading what it started on.
func (t *Table) appendRows(rows []row.Row, numWorkers int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.parts)
	if n == 0 {
		n = numWorkers
	}
	parts := make([][]*row.ColBatch, n)
	copy(parts, t.parts)
	base := 0
	for _, p := range parts {
		base += chunkLen(p)
	}
	add := make([][]row.Row, len(parts))
	for i, r := range rows {
		w := (base + i) % len(parts)
		add[w] = append(add[w], r)
	}
	types := row.SchemaTypes(t.Schema)
	for w, rs := range add {
		if len(rs) > 0 {
			parts[w] = appendChunkRows(types, parts[w], rs)
		}
	}
	t.parts = parts
}

// dataset is an intermediate distributed relation: iters[i] is the pending
// operator pipeline of worker i's partition, and sc resolves column
// references against its bindings.
type dataset struct {
	sc    *scope
	iters []ColBatchSource
}

// ExecSelect plans a SELECT into per-partition batch pipelines. Streaming
// operators (scan, filter, project, per-partition table UDFs, hash-join
// probe) run lazily as the result is consumed; pipeline breakers (join
// build, aggregation, DISTINCT, ORDER BY, LIMIT, global UDFs) drain their
// input during this call and hand back sealed chunks, which the Result
// adopts when a breaker ends the plan.
func (e *Engine) ExecSelect(sel *SelectStmt) (res *Result, retErr error) {
	if len(sel.From) == 0 {
		return nil, fmt.Errorf("sql: SELECT requires a FROM clause")
	}
	// One worker pool per query: every parallel pass of this plan — breaker
	// drains, partial aggregation, hash build, sort runs, DISTINCT — claims
	// tasks from it, and it carries the query-wide cancellation that the
	// returned Result's Close trips.
	qp := newQueryPool(e.parallelism)

	// Every iterator ever created is recorded here; if planning fails the
	// whole set is closed (Close is idempotent, and wrappers cascade).
	var allIters []ColBatchSource
	defer func() {
		if retErr != nil {
			closeAllIters(allIters)
		}
	}()
	track := func(iters []ColBatchSource) []ColBatchSource {
		allIters = append(allIters, iters...)
		return iters
	}

	// Evaluate FROM items into per-source pipelines.
	type source struct {
		name   string
		schema row.Schema
		iters  []ColBatchSource
	}
	srcs := make([]*source, len(sel.From))
	seenNames := make(map[string]bool)
	for i, item := range sel.From {
		name := strings.ToLower(item.Name())
		if seenNames[name] {
			return nil, fmt.Errorf("sql: duplicate table binding %q", name)
		}
		seenNames[name] = true
		var (
			schema row.Schema
			iters  []ColBatchSource
			err    error
		)
		if item.Func != nil {
			schema, iters, err = e.execTableFunc(qp, item.Func)
		} else {
			var t *Table
			t, err = e.catalog.Get(item.Table)
			if err == nil {
				schema = t.Schema
				iters, err = e.scanTable(t)
			}
		}
		if err != nil {
			return nil, err
		}
		srcs[i] = &source{name: name, schema: schema, iters: track(iters)}
	}

	// Classify WHERE conjuncts.
	sourceOf := func(ex Expr) (map[int]bool, error) {
		refs := make(map[int]bool)
		var werr error
		walkExpr(ex, func(sub Expr) {
			cr, ok := sub.(*ColRef)
			if !ok || werr != nil {
				return
			}
			found := -1
			for si, s := range srcs {
				if cr.Qualifier != "" && strings.ToLower(cr.Qualifier) != s.name {
					continue
				}
				if s.schema.ColIndex(cr.Name) >= 0 {
					if found >= 0 {
						werr = fmt.Errorf("sql: ambiguous column %q", cr.Name)
						return
					}
					found = si
				}
			}
			if found < 0 {
				werr = fmt.Errorf("sql: unknown column %q", cr.String())
				return
			}
			refs[found] = true
		})
		return refs, werr
	}

	type conjunct struct {
		ex   Expr
		refs map[int]bool
		used bool
	}
	var conjs []*conjunct
	for _, ex := range Conjuncts(sel.Where) {
		refs, err := sourceOf(ex)
		if err != nil {
			return nil, err
		}
		conjs = append(conjs, &conjunct{ex: ex, refs: refs})
	}

	// Push single-source predicates down to their source as streaming
	// filter operators.
	for si, s := range srcs {
		var push []Expr
		for _, c := range conjs {
			if c.used || len(c.refs) > 1 {
				continue
			}
			if len(c.refs) == 0 || c.refs[si] {
				// Constant predicates apply everywhere; attach to source 0.
				if len(c.refs) == 0 && si != 0 {
					continue
				}
				push = append(push, c.ex)
				c.used = true
			}
		}
		if len(push) == 0 {
			continue
		}
		sc := newScope()
		if err := sc.add(s.name, s.schema); err != nil {
			return nil, err
		}
		if err := e.filter(s.iters, AndAll(push), sc); err != nil {
			return nil, err
		}
		track(s.iters)
	}

	// Left-deep joins in FROM order: each newly joined source is drained
	// and built into a hash table (pipeline breaker), the accumulated left
	// side keeps streaming through probe operators.
	cur := &dataset{sc: newScope(), iters: srcs[0].iters}
	if err := cur.sc.add(srcs[0].name, srcs[0].schema); err != nil {
		return nil, err
	}
	inCur := map[int]bool{0: true}
	for next := 1; next < len(srcs); next++ {
		s := srcs[next]
		nextScope := newScope()
		if err := nextScope.add(s.name, s.schema); err != nil {
			return nil, err
		}
		// Find equi-join conjuncts linking cur to s.
		var leftKeys, rightKeys []Expr
		for _, c := range conjs {
			if c.used || !c.refs[next] {
				continue
			}
			covered := true
			touchesCur := false
			for r := range c.refs {
				if r == next {
					continue
				}
				if inCur[r] {
					touchesCur = true
				} else {
					covered = false
				}
			}
			if !covered || !touchesCur {
				continue
			}
			b, ok := c.ex.(*BinOp)
			if !ok || b.Op != "=" {
				continue
			}
			lrefs, err := sourceOf(b.L)
			if err != nil {
				return nil, err
			}
			rrefs, err := sourceOf(b.R)
			if err != nil {
				return nil, err
			}
			switch {
			case sideIn(lrefs, inCur) && onlySource(rrefs, next):
				leftKeys = append(leftKeys, b.L)
				rightKeys = append(rightKeys, b.R)
				c.used = true
			case onlySource(lrefs, next) && sideIn(rrefs, inCur):
				leftKeys = append(leftKeys, b.R)
				rightKeys = append(rightKeys, b.L)
				c.used = true
			}
		}
		joined, err := e.hashJoin(qp, cur, &dataset{sc: nextScope, iters: s.iters}, leftKeys, rightKeys)
		if err != nil {
			return nil, err
		}
		cur = joined
		track(cur.iters)
		inCur[next] = true
	}

	// Residual predicates after all joins, as streaming filters.
	var residual []Expr
	for _, c := range conjs {
		if !c.used {
			residual = append(residual, c.ex)
		}
	}
	if len(residual) > 0 {
		if err := e.filter(cur.iters, AndAll(residual), cur.sc); err != nil {
			return nil, err
		}
		track(cur.iters)
	}

	// Aggregation (breaker) or streaming projection.
	hasAgg := len(sel.GroupBy) > 0
	for _, item := range sel.Items {
		if item.Expr != nil && exprHasAggregate(item.Expr) {
			hasAgg = true
		}
	}

	var (
		outSchema row.Schema
		outIters  []ColBatchSource  // set while the tail is still streaming
		outParts  [][]*row.ColBatch // set once a breaker materializes it
		streaming bool
		err       error
	)
	if hasAgg {
		outSchema, outParts, err = e.execAggregate(qp, sel, cur)
	} else {
		outSchema, outIters, err = e.execProject(sel.Items, cur)
		streaming = true
		track(outIters)
	}
	if err != nil {
		return nil, err
	}
	outTypes := row.SchemaTypes(outSchema)

	// tailIters hands the current tail to a breaker as pipelines, and
	// tailChunks as sealed chunks, whichever form it is in.
	tailIters := func() []ColBatchSource {
		if streaming {
			streaming = false
			return outIters
		}
		return chunkIters(outParts)
	}
	tailChunks := func() ([][]*row.ColBatch, error) {
		if streaming {
			streaming = false
			return qp.drainChunks(outIters, outTypes)
		}
		return outParts, nil
	}

	if sel.Having != nil {
		if !hasAgg {
			return nil, fmt.Errorf("sql: HAVING requires GROUP BY or aggregates")
		}
		// HAVING references the aggregate output columns by name, and
		// filters the aggregate's chunks as they stream on.
		hsc := newScope()
		if err := hsc.add("", outSchema); err != nil {
			return nil, err
		}
		outIters = chunkIters(outParts)
		if err := e.filter(outIters, sel.Having, hsc); err != nil {
			return nil, err
		}
		streaming = true
	}

	if sel.Distinct {
		outParts, err = e.distinct(qp, tailIters(), outTypes)
		if err != nil {
			return nil, err
		}
	}

	if len(sel.OrderBy) > 0 {
		outParts, err = e.orderBy(qp, sel.OrderBy, outSchema, tailChunks)
		if err != nil {
			return nil, err
		}
	}

	if sel.Limit >= 0 {
		outParts, err = limit(tailIters(), outTypes, sel.Limit)
		if err != nil {
			return nil, err
		}
	}

	if streaming {
		res = &Result{Schema: outSchema, stream: outIters}
	} else {
		res = newChunkResult(outSchema, outParts)
	}
	res.pool = qp
	return res, nil
}

func sideIn(refs map[int]bool, in map[int]bool) bool {
	if len(refs) == 0 {
		return false
	}
	for r := range refs {
		if !in[r] {
			return false
		}
	}
	return true
}

func onlySource(refs map[int]bool, si int) bool {
	return len(refs) == 1 && refs[si]
}

// filter wraps every partition pipeline, in place, in a columnar filter
// on the WHERE predicate ex.
func (e *Engine) filter(iters []ColBatchSource, ex Expr, sc *scope) error {
	pred, t, err := compileVec(ex, sc, e.registry)
	if err != nil {
		return err
	}
	if t != row.TypeBool {
		return fmt.Errorf("sql: predicate must be BOOLEAN, got %s", t)
	}
	for j := range iters {
		iters[j] = newColFilterIter(iters[j], pred)
	}
	return nil
}

// scanTable produces per-partition batch pipelines for a table: managed
// tables yield views of their sealed chunks; streaming tables hand over
// their (single-use) pipelines; external tables (a DFS file or a
// directory of part files) stream their splits as column batches, each
// worker reading the splits hadoopfmt.Place assigns it.
func (e *Engine) scanTable(t *Table) ([]ColBatchSource, error) {
	if t.streaming {
		iters, ok := t.takeStream()
		if !ok {
			return nil, fmt.Errorf("sql: streaming table %q already consumed", t.Name)
		}
		return iters, nil
	}
	if t.External == nil {
		parts := t.chunks()
		if len(parts) == 0 {
			parts = make([][]*row.ColBatch, e.NumWorkers())
		}
		return chunkIters(parts), nil
	}
	fm := hadoopfmt.NewTextTableFormat(t.External.FS, t.External.Path, t.Schema)
	splits, err := fm.Splits(0)
	if err != nil {
		return nil, fmt.Errorf("sql: external table %q: %w", t.Name, err)
	}
	assigned := make([][]hadoopfmt.InputSplit, e.NumWorkers())
	for i, w := range hadoopfmt.Place(splits, e.workers) {
		assigned[w] = append(assigned[w], splits[i])
	}
	iters := make([]ColBatchSource, e.NumWorkers())
	for i := range iters {
		iters[i] = &externalScan{fm: fm, splits: assigned[i], node: e.workers[i]}
	}
	return iters, nil
}

// execTableFunc plans TABLE(f(...)) from a FROM clause. Per-partition UDFs
// become pipelined operators: the UDF runs in a goroutine per partition,
// pulling input batches and emitting output batches as the consumer asks
// for them. Global UDFs are pipeline breakers: gather input to the head,
// run once, scatter output. Every emitted batch is checked against the
// declared output schema so a misbehaving UDF fails loudly.
func (e *Engine) execTableFunc(qp *queryPool, call *TableFuncCall) (row.Schema, []ColBatchSource, error) {
	udf, ok := e.registry.Table(call.Name)
	if !ok {
		return row.Schema{}, nil, fmt.Errorf("sql: unknown table function %q", call.Name)
	}
	var (
		inSchema row.Schema
		inIters  []ColBatchSource
		litArgs  []row.Value
		hasTable bool
	)
	for _, a := range call.Args {
		if a.Table != "" {
			if hasTable {
				return row.Schema{}, nil, fmt.Errorf("sql: table function %q takes at most one table argument", call.Name)
			}
			hasTable = true
			t, err := e.catalog.Get(a.Table)
			if err != nil {
				return row.Schema{}, nil, err
			}
			inSchema = t.Schema
			iters, err := e.scanTable(t)
			if err != nil {
				return row.Schema{}, nil, err
			}
			inIters = iters
			continue
		}
		litArgs = append(litArgs, a.Lit.V)
	}
	outSchema, err := udf.OutSchema(inSchema, litArgs)
	if err != nil {
		closeAllIters(inIters)
		return row.Schema{}, nil, fmt.Errorf("sql: %s: %w", udf.Name, err)
	}
	if inIters == nil {
		inIters = chunkIters(make([][]*row.ColBatch, e.NumWorkers()))
	}
	run := func(ctx *UDFContext, in ColBatchSource, emit func(*row.ColBatch) error) error {
		checked := func(b *row.ColBatch) error {
			if err := b.Conforms(outSchema); err != nil {
				return fmt.Errorf("sql: %s: %w", udf.Name, err)
			}
			return emit(b)
		}
		if err := udf.Fn(ctx, in, litArgs, checked); err != nil {
			return fmt.Errorf("sql: %s: %w", udf.Name, err)
		}
		return nil
	}

	if udf.PerPartition {
		outIters := make([]ColBatchSource, len(inIters))
		for i := range inIters {
			node := e.workers[i]
			// Consuming the input is one pass over the local partition,
			// charged batch-by-batch as the UDF pulls.
			input := &chargeColIter{c: inIters[i], cost: e.cost, node: node}
			ctx := &UDFContext{Engine: e, Node: node, Partition: i, NumPartitions: len(inIters), InSchema: inSchema}
			outIters[i] = newUDFPipe(input, func(in ColBatchSource, emit func(*row.ColBatch) error) error {
				return run(ctx, in, emit)
			})
		}
		return outSchema, outIters, nil
	}

	// Global UDF: gather input to the head node, run once over the
	// partitions in order, scatter output row i to worker i mod n.
	inParts, err := qp.drainChunks(inIters, row.SchemaTypes(inSchema))
	if err != nil {
		return row.Schema{}, nil, err
	}
	var gathered []*row.ColBatch
	total := 0
	for i, p := range inParts {
		n := chunkBytes(p)
		if i < len(e.workers) && e.workers[i] != e.head {
			e.cost.ChargeNet(e.workers[i], e.head, n)
		}
		total += n
		gathered = append(gathered, p...)
	}
	e.cost.ChargeProc(e.head, total)
	ctx := &UDFContext{Engine: e, Node: e.head, Partition: 0, NumPartitions: 1, InSchema: inSchema}
	outTypes := row.SchemaTypes(outSchema)
	ws := make([]*chunkWriter, e.NumWorkers())
	for i := range ws {
		ws[i] = newChunkWriter(outTypes, -1)
	}
	next := 0
	var pos []int32
	emit := func(b *row.ColBatch) error {
		k, n := b.Len(), len(ws)
		for w := range ws {
			pos = pos[:0]
			for si := ((w-next)%n + n) % n; si < k; si += n {
				pos = append(pos, int32(b.SelPos(si)))
			}
			ws[w].appendPositions(b, pos)
		}
		next += k
		return nil
	}
	if err := run(ctx, &chunkScan{chunks: gathered}, emit); err != nil {
		return row.Schema{}, nil, err
	}
	outParts := make([][]*row.ColBatch, len(ws))
	for i, w := range ws {
		outParts[i] = w.finish()
		if e.workers[i] != e.head {
			e.cost.ChargeNet(e.head, e.workers[i], chunkBytes(outParts[i]))
		}
	}
	return outSchema, chunkIters(outParts), nil
}

// hashJoin joins two datasets. The right (newly joined) side is drained
// into sealed chunks and built into a hash table that is broadcast to
// every probe worker; the left side streams through probe operators — a
// pipelined broadcast hash join. With no keys it is a broadcast
// nested-loop (cartesian) join: the same probe with one bucket holding
// every build row. Output binding order is always left-then-right,
// matching FROM order. Drain and build both run on the query pool: the
// drain partition-wise, the build as per-chunk key scans plus
// hash-sharded inserts (joinbuild.go).
func (e *Engine) hashJoin(qp *queryPool, left, right *dataset, leftKeys, rightKeys []Expr) (*dataset, error) {
	outScope := newScope()
	for _, b := range left.sc.bindings {
		if err := outScope.add(b.name, b.schema); err != nil {
			return nil, err
		}
	}
	for _, b := range right.sc.bindings {
		if err := outScope.add(b.name, b.schema); err != nil {
			return nil, err
		}
	}

	buildKeyFns, _, err := vecExprs(rightKeys, right.sc, e.registry)
	if err != nil {
		return nil, err
	}
	probeKeyFns, _, err := vecExprs(leftKeys, left.sc, e.registry)
	if err != nil {
		return nil, err
	}

	// Drain the build side (pipeline breaker).
	buildParts, err := qp.drainChunks(right.iters, row.SchemaTypes(right.sc.combined()))
	if err != nil {
		return nil, err
	}

	// Broadcast: every probe worker receives the full build side. Charge
	// the network once per (build partition, remote probe worker) pair.
	for bi, bp := range buildParts {
		bytes := chunkBytes(bp)
		for pi := range left.iters {
			if bi < len(e.workers) && pi < len(e.workers) && e.workers[bi] != e.workers[pi] {
				e.cost.ChargeNet(e.workers[bi], e.workers[pi], bytes)
			}
		}
	}

	// Build the sharded hash table (shared read-only across probe workers)
	// on the pool.
	build, err := buildHashTable(qp, buildParts, buildKeyFns)
	if err != nil {
		return nil, err
	}

	// The probe runs column-wise: key kernels over whole batches, one
	// hashed lookup per packed key, matches gathered into column batches.
	outTypes := row.SchemaTypes(outScope.combined())
	outIters := make([]ColBatchSource, len(left.iters))
	for i := range left.iters {
		var node *cluster.Node
		if i < len(e.workers) {
			node = e.workers[i]
		}
		outIters[i] = &colProbeIter{
			in:     left.iters[i],
			keyFns: probeKeyFns,
			build:  build,
			types:  outTypes,
			cost:   e.cost,
			node:   node,
		}
	}
	return &dataset{sc: outScope, iters: outIters}, nil
}

// execProject compiles the select list into streaming projection
// operators: columnar kernels assembling output batches from result
// vectors.
func (e *Engine) execProject(items []SelectItem, in *dataset) (row.Schema, []ColBatchSource, error) {
	fns, schema, err := compileSelectList(items, in.sc, e.registry)
	if err != nil {
		return row.Schema{}, nil, err
	}
	outTypes := row.SchemaTypes(schema)
	outIters := make([]ColBatchSource, len(in.iters))
	for i := range in.iters {
		outIters[i] = newColProjectIter(in.iters[i], fns, outTypes)
	}
	return schema, outIters, nil
}

// compileSelectList expands stars and compiles each output column into a
// kernel, returning the kernels and the output schema. A star column is a
// passthrough kernel (zero-copy: the output batch adopts the input vector
// header).
func compileSelectList(items []SelectItem, sc *scope, reg *Registry) ([]vecFn, row.Schema, error) {
	var fns []vecFn
	var names []string
	var types []row.Type
	for _, item := range items {
		if item.Star {
			q := strings.ToLower(item.StarQualifier)
			matched := false
			for _, bd := range sc.bindings {
				if q != "" && bd.name != q {
					continue
				}
				matched = true
				for ci, col := range bd.schema.Cols {
					idx := bd.offset + ci
					fns = append(fns, func(c *vecCtx, b *row.ColBatch, pos []int32) (*row.Vector, error) {
						return b.Col(idx), nil
					})
					names = append(names, col.Name)
					types = append(types, col.Type)
				}
			}
			if !matched {
				return nil, row.Schema{}, fmt.Errorf("sql: unknown binding %q in star expansion", item.StarQualifier)
			}
			continue
		}
		fn, t, err := compileVec(item.Expr, sc, reg)
		if err != nil {
			return nil, row.Schema{}, err
		}
		fns = append(fns, fn)
		names = append(names, outputName(item))
		types = append(types, t)
	}
	schema, err := makeOutputSchema(names, types)
	if err != nil {
		return nil, row.Schema{}, err
	}
	return fns, schema, nil
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

// orderBy sorts the tail (a pipeline breaker): the sort keys compile
// against the output columns, tail drains the input into sealed chunks
// (or hands over the chunks a breaker already made), every partition is
// charged as moving to the head, and sortParts sorts it all into
// partition 0.
func (e *Engine) orderBy(qp *queryPool, items []OrderItem, schema row.Schema, tail func() ([][]*row.ColBatch, error)) ([][]*row.ColBatch, error) {
	sc := newScope()
	if err := sc.add("", schema); err != nil {
		return nil, err
	}
	specs := make([]orderSpec, len(items))
	exprs := make([]Expr, len(items))
	for i, it := range items {
		specs[i] = orderSpec{desc: it.Desc}
		exprs[i] = it.Expr
	}
	keyFns, _, err := vecExprs(exprs, sc, e.registry)
	if err != nil {
		return nil, err
	}
	parts, err := tail()
	if err != nil {
		return nil, err
	}
	for i, p := range parts {
		if i < len(e.workers) && e.workers[i] != e.head {
			e.cost.ChargeNet(e.workers[i], e.head, chunkBytes(p))
		}
	}
	sorted, err := sortParts(qp, specs, keyFns, row.SchemaTypes(schema), parts)
	if err != nil {
		return nil, err
	}
	out := make([][]*row.ColBatch, len(parts))
	out[0] = sorted
	return out, nil
}

// limit keeps the first n rows (taken in partition order) as sealed
// chunks, pulling only the batches it needs and closing the rest of the
// pipeline early — the early-termination path of the batch-iterator model.
func limit(iters []ColBatchSource, types []row.Type, n int) ([][]*row.ColBatch, error) {
	primeIters(iters)
	out := make([][]*row.ColBatch, len(iters))
	remaining := n
	var firstErr error
	for i, c := range iters {
		w := newChunkWriter(types, -1)
		for remaining > 0 && firstErr == nil {
			b, ok, err := c.NextCol()
			if err != nil {
				firstErr = err
				break
			}
			if !ok {
				break
			}
			k := min(b.Len(), remaining)
			w.appendBatch(b, k)
			remaining -= k
		}
		c.Close()
		out[i] = w.finish()
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// ExportToDFS writes a result to the DFS as a directory of text part
// files, one per partition, written in parallel by each worker — the
// materialization step of the paper's naive pipeline. A streaming result
// is written batch-by-batch as its pipeline produces rows, so the export
// overlaps with the query instead of following it.
func (e *Engine) ExportToDFS(res *Result, fs *dfs.FileSystem, dir string) error {
	iters, err := res.sources()
	if err != nil {
		return err
	}
	qp := newQueryPool(e.parallelism)
	primeIters(iters)
	return qp.forEach(len(iters), func(i, _ int) error {
		defer iters[i].Close()
		node := e.workers[i%len(e.workers)]
		path := fmt.Sprintf("%s/part-%05d", dir, i)
		w, err := hadoopfmt.NewTextTableWriter(fs, path, res.Schema, node)
		if err != nil {
			return err
		}
		var rows []row.Row
		for {
			if qp.cancelled() {
				w.Abort()
				return errQueryCancelled
			}
			b, ok, berr := iters[i].NextCol()
			if berr != nil {
				w.Abort()
				return berr
			}
			if !ok {
				break
			}
			// Encoding and writing the batch is one pass over it.
			e.cost.ChargeProc(node, colBatchBytes(b))
			rows = b.Rows(rows[:0])
			for _, r := range rows {
				if werr := w.WriteRow(r); werr != nil {
					return werr
				}
			}
		}
		_, err = w.Close()
		return err
	})
}

// showTables answers SHOW TABLES with one row per catalog table.
func (e *Engine) showTables() (*Result, error) {
	schema := row.MustSchema(
		row.Column{Name: "name", Type: row.TypeString},
		row.Column{Name: "rows", Type: row.TypeInt},
		row.Column{Name: "storage", Type: row.TypeString},
	)
	parts := make([][]row.Row, e.NumWorkers())
	for _, name := range e.catalog.Names() {
		t, err := e.catalog.Get(name)
		if err != nil {
			continue
		}
		storage := "managed"
		if t.External != nil {
			storage = "external:" + t.External.Path
		}
		if t.streaming {
			storage = "streaming"
		}
		parts[0] = append(parts[0], row.Row{
			row.String_(t.Name), row.Int(int64(t.NumRows())), row.String_(storage),
		})
	}
	return NewResult(schema, parts), nil
}

// describe answers DESCRIBE <table> with one row per column.
func (e *Engine) describe(name string) (*Result, error) {
	t, err := e.catalog.Get(name)
	if err != nil {
		return nil, err
	}
	schema := row.MustSchema(
		row.Column{Name: "column", Type: row.TypeString},
		row.Column{Name: "type", Type: row.TypeString},
	)
	parts := make([][]row.Row, e.NumWorkers())
	for _, c := range t.Schema.Cols {
		parts[0] = append(parts[0], row.Row{row.String_(c.Name), row.String_(c.Type.String())})
	}
	return NewResult(schema, parts), nil
}
