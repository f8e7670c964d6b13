package sqlengine

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"sqlml/internal/dfs"
	"sqlml/internal/row"
)

// ExternalBacking marks a table whose data lives as a text file on the DFS
// (the paper's "tables stored in text format on HDFS"). Scanning such a
// table re-reads the file — and pays its I/O — on every query, exactly like
// a SQL-on-Hadoop engine.
type ExternalBacking struct {
	FS   *dfs.FileSystem
	Path string
}

// Table is a catalog entry. A managed table holds each of the engine's
// worker partitions as sealed column chunks (chunks.go): scans read them
// through per-scan views, and a write (INSERT) publishes new chunks rather
// than touching a published one. External tables are scanned from the
// DFS; streaming tables (RegisterResultStream) hold a live per-partition
// batch pipeline that exactly one scan may consume.
type Table struct {
	Name     string
	Schema   row.Schema
	External *ExternalBacking

	mu        sync.RWMutex
	parts     [][]*row.ColBatch
	streaming bool
	stream    []ColBatchSource
}

// NumRows returns the managed row count (0 for external tables; their
// cardinality is only known after a scan).
func (t *Table) NumRows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	for _, p := range t.parts {
		n += chunkLen(p)
	}
	return n
}

// chunks returns the managed partitions. Callers treat them as read-only;
// a writer replaces the slices rather than writing into them.
func (t *Table) chunks() [][]*row.ColBatch {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.parts
}

// takeStream hands over a streaming table's one-shot pipeline; the second
// caller gets ok=false.
func (t *Table) takeStream() ([]ColBatchSource, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.stream
	t.stream = nil
	return s, s != nil
}

// Catalog is the engine's table namespace. Safe for concurrent use.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

func key(name string) string { return strings.ToLower(name) }

// Get returns the named table.
func (c *Catalog) Get(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[key(name)]
	if !ok {
		return nil, fmt.Errorf("sql: unknown table %q", name)
	}
	return t, nil
}

// Put registers a table, failing if the name is taken.
func (c *Catalog) Put(t *Table) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(t.Name)
	if _, ok := c.tables[k]; ok {
		return fmt.Errorf("sql: table %q already exists", t.Name)
	}
	c.tables[k] = t
	return nil
}

// Drop removes a table.
func (c *Catalog) Drop(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(name)
	if _, ok := c.tables[k]; !ok {
		return fmt.Errorf("sql: unknown table %q", name)
	}
	delete(c.tables, k)
	return nil
}

// Names lists defined tables, sorted.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t.Name)
	}
	sort.Strings(out)
	return out
}
