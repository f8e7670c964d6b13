package sqlengine

import (
	"fmt"
	"sync"

	"sqlml/internal/cluster"
	"sqlml/internal/row"
)

// UDFContext carries execution-site information into a UDF invocation: the
// worker's node (for cost charging and streaming), its partition index, and
// the total number of SQL workers — the paper's UDFs need all three (e.g.
// the stream sender registers "its own worker id, IP address, and the total
// number of active SQL workers" with the coordinator).
type UDFContext struct {
	Engine        *Engine
	Node          *cluster.Node
	Partition     int
	NumPartitions int
	// InSchema is the schema of the batches arriving on the input source
	// (the zero schema for table functions invoked without a table).
	InSchema row.Schema
}

// TableUDF is a table-valued user-defined function, the extensibility
// mechanism the whole paper builds on.
//
// PerPartition functions run once per SQL worker over that worker's local
// partition (the paper's "parallel table UDF"); otherwise the input is
// gathered and the function runs once at the head node (used for steps
// that need a global view, such as assigning consecutive recode IDs).
//
// The contract is batches in, batches out, in the engine's one physical
// form. Fn pulls its input from in: a batch is valid until the next
// NextCol and may carry a selection vector, and the engine closes in after
// Fn returns. Fn emits output batches of the declared output schema; each
// one is checked against it once, by vector type. A batch passed to emit
// is lent, not given: emit blocks until the consumer is done with it (its
// next pull, or Close), and once emit returns the batch belongs to the UDF
// again, which may refill it. Downstream operators may narrow a lent
// batch's selection vector, so reset a batch before refilling it.
type TableUDF struct {
	Name         string
	PerPartition bool
	// OutSchema derives the output schema from the input schema and the
	// literal arguments. Called at plan time.
	OutSchema func(in row.Schema, args []row.Value) (row.Schema, error)
	// Fn consumes the input batches and emits output batches.
	Fn func(ctx *UDFContext, in ColBatchSource, args []row.Value, emit func(*row.ColBatch) error) error
}

// ScalarUDF is a scalar user-defined function usable in any expression.
type ScalarUDF struct {
	Name string
	// ReturnType derives the result type from argument types at plan time.
	ReturnType func(args []row.Type) (row.Type, error)
	// Fn is the table-UDF contract's shape over one batch: vectors in, one
	// vector out. args[i] holds argument i at the positions in pos
	// (ascending physical row indices; every other slot is unspecified),
	// and Fn writes out at exactly those positions. out arrives reset to
	// the return type: pre-sized for positional writes (out.Ints[p],
	// out.SetNull(p), ...) for BIGINT, DOUBLE and BOOLEAN, and empty for
	// VARCHAR, which Fn builds in position order — out.PadTo(p), then one
	// append. Fn must not retain any vector. An error fails the query.
	Fn func(args []*row.Vector, pos []int32, out *row.Vector) error
}

// Registry holds the UDFs known to an engine. Safe for concurrent use.
type Registry struct {
	mu      sync.RWMutex
	scalars map[string]*ScalarUDF
	tables  map[string]*TableUDF
}

// NewRegistry returns a registry preloaded with the built-in scalar
// functions (builtins.go).
func NewRegistry() *Registry {
	r := &Registry{
		scalars: make(map[string]*ScalarUDF),
		tables:  make(map[string]*TableUDF),
	}
	for _, udf := range builtinScalars() {
		r.scalars[key(udf.Name)] = udf
	}
	return r
}

// RegisterScalar adds a scalar UDF, failing on duplicate names.
func (r *Registry) RegisterScalar(u *ScalarUDF) error {
	if u == nil || u.Name == "" || u.Fn == nil || u.ReturnType == nil {
		return fmt.Errorf("sql: incomplete scalar UDF")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	k := key(u.Name)
	if _, ok := r.scalars[k]; ok {
		return fmt.Errorf("sql: scalar UDF %q already registered", u.Name)
	}
	r.scalars[k] = u
	return nil
}

// RegisterTable adds a table UDF, failing on duplicate names.
func (r *Registry) RegisterTable(u *TableUDF) error {
	if u == nil || u.Name == "" || u.Fn == nil || u.OutSchema == nil {
		return fmt.Errorf("sql: incomplete table UDF")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	k := key(u.Name)
	if _, ok := r.tables[k]; ok {
		return fmt.Errorf("sql: table UDF %q already registered", u.Name)
	}
	r.tables[k] = u
	return nil
}

// Scalar looks up a scalar UDF by name.
func (r *Registry) Scalar(name string) (*ScalarUDF, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	u, ok := r.scalars[key(name)]
	return u, ok
}

// Table looks up a table UDF by name.
func (r *Registry) Table(name string) (*TableUDF, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	u, ok := r.tables[key(name)]
	return u, ok
}
