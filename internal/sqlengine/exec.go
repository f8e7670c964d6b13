package sqlengine

import (
	"fmt"

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
		return materialized(e.execSelect(s))
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
	return materialized(e.QueryStream(sql))
}

// materialized drains a freshly executed result.
func materialized(res *Result, err error) (*Result, error) {
	if err == nil {
		err = res.Materialize()
	}
	if err != nil {
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
	return e.execSelect(sel)
}

func (e *Engine) execCreate(s *CreateTableStmt) error {
	if s.AsSelect != nil {
		res, err := e.execSelect(s.AsSelect)
		if err != nil {
			return err
		}
		return e.RegisterResult(s.Name, res)
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

// execSelect plans sel, then builds it: a statement that fails to plan has
// opened nothing.
func (e *Engine) execSelect(sel *SelectStmt) (*Result, error) {
	n, err := e.plan(sel)
	if err != nil {
		return nil, err
	}
	return e.build(n)
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
	return newQueryPool(e.parallelism).drain(iters, func(i int) (partSink, error) {
		node := e.workers[i%len(e.workers)]
		w, err := hadoopfmt.NewTextTableWriter(fs, fmt.Sprintf("%s/part-%05d", dir, i), res.Schema, node)
		if err != nil {
			return nil, err
		}
		return &exportSink{w: w, cost: e.cost, node: node}, nil
	})
}

// exportSink writes one partition of an export to its part file.
type exportSink struct {
	w    *hadoopfmt.TextTableWriter
	cost *cluster.CostModel
	node *cluster.Node
}

func (s *exportSink) add(b *row.ColBatch) error {
	// Encoding and writing the batch is one pass over it.
	s.cost.ChargeProc(s.node, colBatchBytes(b))
	return s.w.WriteBatch(b)
}

// end commits the part file, or discards it when the partition failed.
func (s *exportSink) end(err error) error {
	if err != nil {
		s.w.Abort()
		return err
	}
	_, err = s.w.Close()
	return err
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
