package sqlengine

import (
	"fmt"
	"sync"

	"sqlml/internal/cluster"
	"sqlml/internal/dfs"
	"sqlml/internal/row"
)

// Config selects which cluster nodes host SQL workers and which acts as the
// head (coordinator) node. The paper's testbed dedicates one server as the
// Big SQL head node and runs one multi-threaded worker on each of the rest.
type Config struct {
	WorkerNodeIDs []int
	HeadNodeID    int

	// Parallelism bounds how many pool workers one query may run
	// concurrently (partition drains and aggregation partials, the hash
	// build's key scan, sort runs). Zero selects the default, one worker per
	// available CPU (runtime.GOMAXPROCS). Parallelism: 1 is the
	// sequential oracle: every parallel schedule must produce output
	// byte-identical to it.
	Parallelism int
}

// Engine is the MPP SQL engine: a catalog of partitioned tables, a UDF
// registry, and a distributed executor running one worker per configured
// node.
type Engine struct {
	topo    *cluster.Topology
	cost    *cluster.CostModel
	workers []*cluster.Node
	head    *cluster.Node

	catalog     *Catalog
	registry    *Registry
	parallelism int
}

// New creates an engine on the given topology. cost may be nil (no
// simulated I/O charging).
func New(topo *cluster.Topology, cost *cluster.CostModel, cfg Config) (*Engine, error) {
	if len(cfg.WorkerNodeIDs) == 0 {
		return nil, fmt.Errorf("sql: engine needs at least one worker node")
	}
	if cfg.Parallelism < 0 {
		return nil, fmt.Errorf("sql: negative Parallelism %d", cfg.Parallelism)
	}
	e := &Engine{
		topo:        topo,
		cost:        cost,
		head:        topo.Node(cfg.HeadNodeID),
		catalog:     NewCatalog(),
		registry:    NewRegistry(),
		parallelism: cfg.Parallelism,
	}
	seen := make(map[int]bool)
	for _, id := range cfg.WorkerNodeIDs {
		if seen[id] {
			return nil, fmt.Errorf("sql: duplicate worker node %d", id)
		}
		seen[id] = true
		e.workers = append(e.workers, topo.Node(id))
	}
	return e, nil
}

// NumWorkers returns the number of SQL workers.
func (e *Engine) NumWorkers() int { return len(e.workers) }

// Parallelism returns the engine's effective per-query worker budget.
func (e *Engine) Parallelism() int { return resolveParallelism(e.parallelism) }

// WorkerNode returns the node hosting worker i.
func (e *Engine) WorkerNode(i int) *cluster.Node { return e.workers[i] }

// Topology returns the engine's cluster.
func (e *Engine) Topology() *cluster.Topology { return e.topo }

// Cost returns the engine's cost model (possibly nil).
func (e *Engine) Cost() *cluster.CostModel { return e.cost }

// Catalog returns the table catalog.
func (e *Engine) Catalog() *Catalog { return e.catalog }

// Registry returns the UDF registry.
func (e *Engine) Registry() *Registry { return e.registry }

// CreateTable defines an empty managed table.
func (e *Engine) CreateTable(name string, schema row.Schema) error {
	t := &Table{Name: name, Schema: schema, parts: make([][]*row.ColBatch, e.NumWorkers())}
	return e.catalog.Put(t)
}

// LoadTable defines a managed table and distributes rows round-robin
// across workers.
func (e *Engine) LoadTable(name string, schema row.Schema, rows []row.Row) error {
	parts := make([][]row.Row, e.NumWorkers())
	for i, r := range rows {
		w := i % len(parts)
		parts[w] = append(parts[w], r)
	}
	return e.LoadPartitionedTable(name, schema, parts)
}

// LoadPartitionedTable defines a managed table from pre-partitioned data
// (len(parts) must equal NumWorkers), transposing each partition into
// sealed column chunks; the caller keeps its rows.
func (e *Engine) LoadPartitionedTable(name string, schema row.Schema, parts [][]row.Row) error {
	return e.putChunks(name, schema, rowsToChunks(row.SchemaTypes(schema), parts))
}

// putChunks defines a managed table adopting sealed chunk partitions.
func (e *Engine) putChunks(name string, schema row.Schema, parts [][]*row.ColBatch) error {
	if len(parts) != e.NumWorkers() {
		return fmt.Errorf("sql: %d partitions for %d workers", len(parts), e.NumWorkers())
	}
	return e.catalog.Put(&Table{Name: name, Schema: schema, parts: parts})
}

// RegisterExternalTable defines a table backed by a DFS text file (or a
// directory of part files). Scans re-read the DFS every time.
func (e *Engine) RegisterExternalTable(name string, fs *dfs.FileSystem, path string, schema row.Schema) error {
	t := &Table{Name: name, Schema: schema, External: &ExternalBacking{FS: fs, Path: path}}
	return e.catalog.Put(t)
}

// RegisterResult defines a managed table adopting a query result's sealed
// chunks (no copy), materializing the result if it is still streaming.
// This is how pipelines chain query → table UDF → query without leaving
// engine memory.
func (e *Engine) RegisterResult(name string, res *Result) error {
	parts, err := res.chunkParts()
	if err != nil {
		return err
	}
	return e.putChunks(name, res.Schema, parts)
}

// RegisterResultStream defines a table over a streaming result WITHOUT
// materializing it: the table hands the result's per-partition pipelines
// to its first (and only) scan, so a downstream query keeps the whole
// chain pipelined. A materialized result falls back to RegisterResult.
func (e *Engine) RegisterResultStream(name string, res *Result) error {
	if !res.Streaming() {
		return e.RegisterResult(name, res)
	}
	iters, err := res.sources()
	if err != nil {
		return err
	}
	if len(iters) != e.NumWorkers() {
		closeAllIters(iters)
		return fmt.Errorf("sql: %d stream partitions for %d workers", len(iters), e.NumWorkers())
	}
	t := &Table{Name: name, Schema: res.Schema, streaming: true, stream: iters}
	if err := e.catalog.Put(t); err != nil {
		closeAllIters(iters)
		return err
	}
	return nil
}

// DropTable removes a table from the catalog.
func (e *Engine) DropTable(name string) error { return e.catalog.Drop(name) }

// Result is a query result partitioned across the engine's workers:
// partition i lives on WorkerNode(i). A result starts out either
// materialized (pipeline breakers, DDL answers) or streaming — per-worker
// column-batch pipelines that run as they are consumed. Materialize
// drains a streaming result in parallel. A materialized result holds
// sealed column chunks, the managed-table form, so registering it as a
// table copies nothing and every re-read scans the stored vectors.
type Result struct {
	Schema row.Schema

	mu     sync.Mutex
	stream []ColBatchSource
	parts  [][]*row.ColBatch
	done   bool       // parts is valid
	pool   *queryPool // the query's worker pool; nil on ad-hoc results
}

// NewResult wraps materialized row partitions as a result, transposing
// them into sealed chunks once; the caller keeps its rows.
func NewResult(schema row.Schema, parts [][]row.Row) *Result {
	return newChunkResult(schema, rowsToChunks(row.SchemaTypes(schema), parts))
}

// newChunkResult wraps sealed chunk partitions as a materialized result,
// adopting them.
func newChunkResult(schema row.Schema, parts [][]*row.ColBatch) *Result {
	return &Result{Schema: schema, parts: parts, done: true}
}

// Streaming reports whether the result still holds an unconsumed pipeline.
func (r *Result) Streaming() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stream != nil
}

// Materialize drains a streaming result into sealed chunks on the query's
// pool (pipelines whose partitions coordinate — like the stream
// sender — are primed first, so any pool size drains them). It is
// idempotent; on a materialized result it is a no-op. The drain runs
// outside the result lock so a concurrent Close can cancel it mid-flight.
func (r *Result) Materialize() error {
	r.mu.Lock()
	if r.done {
		r.mu.Unlock()
		return nil
	}
	if r.stream == nil {
		r.mu.Unlock()
		return fmt.Errorf("sql: streaming result already consumed")
	}
	s := r.stream
	r.stream = nil
	pool := r.pool
	r.mu.Unlock()
	if pool == nil {
		pool = newQueryPool(0)
	}
	parts, err := pool.drainChunks(s, row.SchemaTypes(r.Schema))
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.parts = parts
	r.done = true
	r.mu.Unlock()
	return nil
}

// Batches returns the row view of every partition: each pipeline's column
// batches, materialized as owning rows. On a streaming result this hands
// off the live pipeline — callable once, and the caller owns closing the
// iterators. On a materialized result it returns fresh chunk scans every
// call.
func (r *Result) Batches() ([]BatchIterator, error) {
	srcs, err := r.sources()
	if err != nil {
		return nil, err
	}
	iters := make([]BatchIterator, len(srcs))
	for i, s := range srcs {
		iters[i] = rowsIter(s)
	}
	return iters, nil
}

// sources hands out the per-partition pipelines themselves, under the
// rules of Batches: once for a streaming result, fresh chunk scans every
// call for a materialized one.
func (r *Result) sources() ([]ColBatchSource, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done {
		return chunkIters(r.parts), nil
	}
	if r.stream == nil {
		return nil, fmt.Errorf("sql: streaming result already consumed")
	}
	s := r.stream
	r.stream = nil
	return s, nil
}

// Parts materializes the result if needed and returns its partitions
// pivoted to owning rows, freshly allocated on every call.
func (r *Result) Parts() ([][]row.Row, error) {
	chunks, err := r.chunkParts()
	if err != nil {
		return nil, err
	}
	parts := make([][]row.Row, len(chunks))
	for i, p := range chunks {
		parts[i] = chunkRows(p)
	}
	return parts, nil
}

// chunkParts materializes the result if needed and returns its sealed
// chunks.
func (r *Result) chunkParts() ([][]*row.ColBatch, error) {
	if err := r.Materialize(); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.parts, nil
}

// Close releases an unconsumed streaming pipeline without draining it,
// and cancels the query's pool so any in-flight parallel pass (a
// Materialize racing on another goroutine, pool tasks between batches)
// tears down instead of completing. Safe on any result, any number of
// times.
func (r *Result) Close() {
	r.mu.Lock()
	s := r.stream
	r.stream = nil
	pool := r.pool
	r.mu.Unlock()
	if pool != nil {
		pool.cancel(errQueryCancelled)
	}
	closeAllIters(s)
}

// NumRows returns the total row count, materializing first if needed; it
// sums chunk lengths and pivots nothing. It panics if draining the
// pipeline fails; error-aware callers should use Materialize or Parts
// instead.
func (r *Result) NumRows() int {
	n := 0
	for _, p := range r.mustChunks() {
		n += chunkLen(p)
	}
	return n
}

// Rows pivots the partitions to owning rows in worker order
// (materializing first if needed), without charging transfer costs.
// Panics if draining fails.
func (r *Result) Rows() []row.Row {
	parts := r.mustChunks()
	n := 0
	for _, p := range parts {
		n += chunkLen(p)
	}
	out := make([]row.Row, 0, n)
	for _, p := range parts {
		for _, c := range p {
			out = c.Rows(out)
		}
	}
	return out
}

func (r *Result) mustChunks() [][]*row.ColBatch {
	parts, err := r.chunkParts()
	if err != nil {
		panic(fmt.Sprintf("sqlengine: draining streaming result: %v", err))
	}
	return parts
}
