package sqlengine

import (
	"fmt"

	"sqlml/internal/cluster"
	"sqlml/internal/hadoopfmt"
	"sqlml/internal/row"
)

// build runs a planned SELECT (plan.go). Streaming operators (scan,
// filter, project, per-partition table UDFs, hash-join probe) become
// per-partition batch pipelines that run lazily as the result is consumed;
// pipeline breakers (join build, aggregation and so DISTINCT, ORDER BY,
// LIMIT, global UDFs) drain their input during this call and hand back
// sealed chunks, which the Result adopts when a breaker ends the plan.
//
// One worker pool serves the query: every parallel pass of the plan —
// breaker drains, partial aggregation, hash build, sort runs — claims
// tasks from it, and it carries the query-wide cancellation that the
// returned Result's Close trips.
func (e *Engine) build(root *planNode) (*Result, error) {
	qp := newQueryPool(e.parallelism)
	out, err := e.open(qp, root)
	if err != nil {
		return nil, err
	}
	return &Result{Schema: root.schema, stream: out.iters, parts: out.chunks, done: out.iters == nil, pool: qp}, nil
}

// built is a built node's output, one entry per partition: the pipelines
// of a streaming operator, or (iters nil) the sealed chunks a breaker
// handed back.
type built struct {
	iters  []ColBatchSource
	chunks [][]*row.ColBatch
}

// sources returns the output as pipelines.
func (b built) sources() []ColBatchSource {
	if b.iters == nil {
		return chunkIters(b.chunks)
	}
	return b.iters
}

// sealed returns the output as sealed chunks, draining pipelines into them.
func (b built) sealed(qp *queryPool, types []row.Type) ([][]*row.ColBatch, error) {
	if b.iters == nil {
		return b.chunks, nil
	}
	return qp.drainChunks(b.iters, types)
}

// open builds node n over its built input. When it fails, every pipeline
// it opened is closed.
func (e *Engine) open(qp *queryPool, n *planNode) (built, error) {
	switch n.kind {
	case nodeScan:
		iters, err := e.scanTable(n.table)
		return built{iters: iters}, err
	case nodeTableFunc:
		return e.openTableFunc(qp, n)
	case nodeJoin:
		return e.openJoin(qp, n)
	}
	in, err := e.open(qp, n.in)
	if err != nil {
		return built{}, err
	}
	var chunks [][]*row.ColBatch
	switch n.kind {
	case nodeFilter, nodeHaving:
		iters := in.sources()
		for i, it := range iters {
			iters[i] = newColFilterIter(it, n.fns[0])
		}
		return built{iters: iters}, nil
	case nodeProject:
		types := row.SchemaTypes(n.schema)
		iters := in.sources()
		for i, it := range iters {
			iters[i] = newColProjectIter(it, n.fns, types)
		}
		return built{iters: iters}, nil
	case nodeAggregate:
		chunks, err = e.aggregate(qp, n, in.sources())
	case nodeOrder:
		if chunks, err = in.sealed(qp, row.SchemaTypes(n.schema)); err == nil {
			chunks, err = e.orderBy(qp, n, chunks)
		}
	case nodeLimit:
		chunks, err = limit(in.sources(), row.SchemaTypes(n.schema), n.limit)
	}
	if err != nil {
		return built{}, err
	}
	return built{chunks: chunks}, nil
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

// openTableFunc builds TABLE(f(...)). A per-partition UDF is a pipelined
// operator: it runs in a goroutine per partition, pulling input batches
// and emitting output batches as the consumer asks for them. A global UDF
// is a pipeline breaker: gather the input to the head, run once over the
// partitions in order, scatter output row i to worker i mod n. Every
// emitted batch is checked against the declared output schema, so a
// misbehaving UDF fails loudly.
func (e *Engine) openTableFunc(qp *queryPool, n *planNode) (built, error) {
	udf := n.udf
	var inSchema row.Schema
	var inIters []ColBatchSource
	if n.in == nil {
		inIters = chunkIters(make([][]*row.ColBatch, e.NumWorkers()))
	} else {
		in, err := e.open(qp, n.in)
		if err != nil {
			return built{}, err
		}
		inSchema, inIters = n.in.schema, in.sources()
	}
	run := func(ctx *UDFContext, in ColBatchSource, emit func(*row.ColBatch) error) error {
		checked := func(b *row.ColBatch) error {
			if err := b.Conforms(n.schema); err != nil {
				return fmt.Errorf("sql: %s: %w", udf.Name, err)
			}
			return emit(b)
		}
		if err := udf.Fn(ctx, in, n.args, checked); err != nil {
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
		return built{iters: outIters}, nil
	}

	inParts, err := qp.drainChunks(inIters, row.SchemaTypes(inSchema))
	if err != nil {
		return built{}, err
	}
	var gathered []*row.ColBatch
	total := 0
	for i, p := range inParts {
		bytes := chunkBytes(p)
		if i < len(e.workers) && e.workers[i] != e.head {
			e.cost.ChargeNet(e.workers[i], e.head, bytes)
		}
		total += bytes
		gathered = append(gathered, p...)
	}
	e.cost.ChargeProc(e.head, total)
	ctx := &UDFContext{Engine: e, Node: e.head, Partition: 0, NumPartitions: 1, InSchema: inSchema}
	outTypes := row.SchemaTypes(n.schema)
	ws := make([]*chunkWriter, e.NumWorkers())
	for i := range ws {
		ws[i] = newChunkWriter(outTypes, -1)
	}
	next := 0
	var pos []int32
	emit := func(b *row.ColBatch) error {
		k, nw := b.Len(), len(ws)
		for w := range ws {
			pos = pos[:0]
			for si := ((w-next)%nw + nw) % nw; si < k; si += nw {
				pos = append(pos, int32(b.SelPos(si)))
			}
			ws[w].appendPositions(b, pos)
		}
		next += k
		return nil
	}
	if err := run(ctx, &chunkScan{chunks: gathered}, emit); err != nil {
		return built{}, err
	}
	outParts := make([][]*row.ColBatch, len(ws))
	for i, w := range ws {
		outParts[i] = w.finish()
		if e.workers[i] != e.head {
			e.cost.ChargeNet(e.head, e.workers[i], chunkBytes(outParts[i]))
		}
	}
	return built{chunks: outParts}, nil
}

// openJoin builds a pipelined broadcast hash join: the build side is
// drained into sealed chunks and built into a hash table that is broadcast
// to every probe worker, and the probe side streams through probe
// operators. With no keys it is a broadcast nested-loop (cartesian) join:
// the same probe with one bucket holding every build row. The probe runs
// column-wise: key kernels over whole batches, one hashed lookup per packed
// key, matches gathered into column batches.
func (e *Engine) openJoin(qp *queryPool, n *planNode) (built, error) {
	left, err := e.open(qp, n.in)
	if err != nil {
		return built{}, err
	}
	probe := left.sources()
	table, err := e.joinTable(qp, n.right, n.rightFns, len(probe))
	if err != nil {
		closeAllIters(probe)
		return built{}, err
	}
	outTypes := row.SchemaTypes(n.schema)
	for i, in := range probe {
		var node *cluster.Node
		if i < len(e.workers) {
			node = e.workers[i]
		}
		probe[i] = &colProbeIter{in: in, keyFns: n.fns, build: table, types: outTypes,
			probeCols: n.probeCols, buildCols: n.buildCols, cost: e.cost, node: node}
	}
	return built{iters: probe}, nil
}

// joinTable drains a join's build side (a pipeline breaker), charges its
// broadcast to the probe workers, and builds the hash table, shared
// read-only across them. The drain runs on the query pool partition-wise,
// the build as per-chunk key scans there plus one serial insert
// (joinbuild.go).
func (e *Engine) joinTable(qp *queryPool, right *planNode, keyFns []vecFn, probeParts int) (*buildTable, error) {
	out, err := e.open(qp, right)
	if err != nil {
		return nil, err
	}
	parts, err := out.sealed(qp, row.SchemaTypes(right.schema))
	if err != nil {
		return nil, err
	}
	// Broadcast: every probe worker receives the full build side. Charge
	// the network once per (build partition, remote probe worker) pair.
	for bi, bp := range parts {
		bytes := chunkBytes(bp)
		for pi := range probeParts {
			if bi < len(e.workers) && pi < len(e.workers) && e.workers[bi] != e.workers[pi] {
				e.cost.ChargeNet(e.workers[bi], e.workers[pi], bytes)
			}
		}
	}
	return buildHashTable(qp, parts, keyFns)
}

// orderBy sorts a breaker's input, its sealed chunks: every partition is
// charged as moving to the head, and sortParts sorts it all into
// partition 0.
func (e *Engine) orderBy(qp *queryPool, n *planNode, parts [][]*row.ColBatch) ([][]*row.ColBatch, error) {
	for i, p := range parts {
		if i < len(e.workers) && e.workers[i] != e.head {
			e.cost.ChargeNet(e.workers[i], e.head, chunkBytes(p))
		}
	}
	sorted, err := sortParts(qp, n.specs, n.fns, row.SchemaTypes(n.schema), parts)
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
