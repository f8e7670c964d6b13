// Package transform implements the paper's In-SQL data transformations
// (§2): recoding of categorical variables and dummy coding, plus the less
// common effect and orthogonal codings and feature scaling, all run by the
// SQL engine.
//
// Recoding follows the paper's two-phase distributed algorithm exactly:
//
//  1. a parallel table UDF (distinct_values) scans each worker's local
//     partition once and emits the local distinct (column, value) pairs for
//     every categorical column — one scan for all columns, which is the
//     advantage over per-column SELECT DISTINCT queries the paper calls out;
//     a SELECT DISTINCT over the UDF output computes the global pairs, and a
//     second (global) UDF assigns consecutive recode IDs starting from 1;
//  2. the recoding itself is the paper's join between the original table
//     and the recode-map table M.
//
// The paper runs the codings as table UDFs too. Here each coding is a
// fixed CASE over a column's recoded level, generated into the phase-2
// join's select list, so recode and coding are one SELECT.
package transform

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"sqlml/internal/row"
	"sqlml/internal/sqlengine"
)

// RecodeMap maps each categorical column's string values to consecutive
// integer codes starting at 1 (the encoding SystemML-style engines require).
// Column names are normalized to lower case once, when a column is added,
// so the per-row ID lookups in the recode join stay allocation-free.
type RecodeMap struct {
	cols map[string]map[string]int64
}

// NewRecodeMap builds a map from per-column sorted value lists: the i-th
// value (1-based) of a column receives code i.
func NewRecodeMap() *RecodeMap {
	return &RecodeMap{cols: make(map[string]map[string]int64)}
}

// AddColumn registers a column's distinct values; codes are assigned in
// sorted value order so the assignment is deterministic across runs.
func (m *RecodeMap) AddColumn(col string, values []string) {
	col = strings.ToLower(col)
	sorted := append([]string(nil), values...)
	sort.Strings(sorted)
	codes := make(map[string]int64, len(sorted))
	next := int64(1)
	for _, v := range sorted {
		if _, ok := codes[v]; ok {
			continue
		}
		codes[v] = next
		next++
	}
	m.cols[col] = codes
}

// ID returns the code of a value, reporting whether it is known. Map keys
// are stored lower-cased at construction, so the already-lower names the
// per-row recode paths pass hit directly, with no per-lookup
// normalization; mixed-case callers fall back to one ToLower.
func (m *RecodeMap) ID(col, val string) (int64, bool) {
	codes, ok := m.cols[col]
	if !ok {
		codes, ok = m.cols[strings.ToLower(col)]
		if !ok {
			return 0, false
		}
	}
	id, ok := codes[val]
	return id, ok
}

// Cardinality returns the number of distinct values of a column.
func (m *RecodeMap) Cardinality(col string) int {
	codes, ok := m.cols[col]
	if !ok {
		codes = m.cols[strings.ToLower(col)]
	}
	return len(codes)
}

// Columns returns the mapped column names, sorted.
func (m *RecodeMap) Columns() []string {
	out := make([]string, 0, len(m.cols))
	for c := range m.cols {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Rows renders the map as (colname, colval, recodeval) table rows, the
// shape of the paper's recode-map table M.
func (m *RecodeMap) Rows() []row.Row {
	var out []row.Row
	for _, col := range m.Columns() {
		codes := m.cols[col]
		vals := make([]string, 0, len(codes))
		for v := range codes {
			vals = append(vals, v)
		}
		sort.Strings(vals)
		for _, v := range vals {
			out = append(out, row.Row{row.String_(col), row.String_(v), row.Int(codes[v])})
		}
	}
	return out
}

// MapSchema is the schema of the recode-map table M.
func MapSchema() row.Schema {
	return row.MustSchema(
		row.Column{Name: "colname", Type: row.TypeString},
		row.Column{Name: "colval", Type: row.TypeString},
		row.Column{Name: "recodeval", Type: row.TypeInt},
	)
}

// FromRows reconstructs a RecodeMap from (colname, colval, recodeval) rows.
func FromRows(rows []row.Row) (*RecodeMap, error) {
	m := NewRecodeMap()
	for _, r := range rows {
		if len(r) != 3 {
			return nil, fmt.Errorf("transform: recode-map row has %d columns", len(r))
		}
		col := strings.ToLower(r[0].AsString())
		if m.cols[col] == nil {
			m.cols[col] = make(map[string]int64)
		}
		m.cols[col][r[1].AsString()] = r[2].AsInt()
	}
	return m, nil
}

// RegisterUDFs installs recode phase 1's table UDFs, distinct_values and
// assign_recode_ids, into an engine's registry. It must be called once per
// engine before the drivers in this package run.
func RegisterUDFs(e *sqlengine.Engine) error {
	udfs := []*sqlengine.TableUDF{
		distinctValuesUDF(),
		assignRecodeIDsUDF(),
	}
	for _, u := range udfs {
		if err := e.Registry().RegisterTable(u); err != nil {
			return err
		}
	}
	return nil
}

// splitCols parses a 'col1,col2' literal argument.
func splitCols(arg row.Value) ([]string, error) {
	if arg.Null || arg.Kind != row.TypeString {
		return nil, fmt.Errorf("expected a 'col1,col2,...' string argument")
	}
	var out []string
	for _, c := range strings.Split(arg.AsString(), ",") {
		c = strings.TrimSpace(c)
		if c == "" {
			return nil, fmt.Errorf("empty column name in %q", arg.AsString())
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no columns listed")
	}
	return out, nil
}

// distinctValuesUDF is phase 1 of recoding: each SQL worker scans its local
// partition once and emits the locally-distinct (colname, colval) pairs for
// every requested categorical column.
func distinctValuesUDF() *sqlengine.TableUDF {
	return &sqlengine.TableUDF{
		Name:         "distinct_values",
		PerPartition: true,
		OutSchema: func(in row.Schema, args []row.Value) (row.Schema, error) {
			if len(args) != 1 {
				return row.Schema{}, fmt.Errorf("usage: distinct_values(T, 'col1,col2')")
			}
			cols, err := splitCols(args[0])
			if err != nil {
				return row.Schema{}, err
			}
			for _, c := range cols {
				col, ok := in.Col(c)
				if !ok {
					return row.Schema{}, fmt.Errorf("unknown column %q", c)
				}
				if col.Type != row.TypeString {
					return row.Schema{}, fmt.Errorf("column %q is %s; recoding applies to VARCHAR", c, col.Type)
				}
			}
			return row.NewSchema(
				row.Column{Name: "colname", Type: row.TypeString},
				row.Column{Name: "colval", Type: row.TypeString},
			)
		},
		Fn: func(ctx *sqlengine.UDFContext, in sqlengine.ColBatchSource, args []row.Value, emit func(*row.ColBatch) error) error {
			cols, err := splitCols(args[0])
			if err != nil {
				return err
			}
			idx := make([]int, len(cols))
			names := make([]string, len(cols))
			for i, c := range cols {
				idx[i] = ctx.InSchema.ColIndex(c)
				names[i] = strings.ToLower(c)
			}
			// The engine's arena hash table de-duplicates (column, value)
			// pairs: the key is the column's ordinal plus the value, packed
			// straight from the vector into one reused scratch buffer — the
			// same allocation-free key path the engine's own DISTINCT uses.
			seen := sqlengine.NewHashTable()
			var keyBuf []byte
			out := row.NewColBatch(pairTypes)
			flush := func() error {
				if out.FullLen() == 0 {
					return nil
				}
				err := emit(out)
				out.Reset(pairTypes)
				return err
			}
			for {
				b, ok, err := in.NextCol()
				if err != nil {
					return err
				}
				if !ok {
					return flush()
				}
				for si, n := 0, b.Len(); si < n; si++ {
					p := b.SelPos(si)
					for i, ci := range idx {
						col := b.Col(ci)
						if col.Null(p) {
							continue
						}
						keyBuf = row.AppendKeyValue(keyBuf[:0], row.Int(int64(i)))
						keyBuf = row.AppendVectorKey(keyBuf, col, p)
						if _, added := seen.Insert(keyBuf); !added {
							continue
						}
						out.Col(0).AppendString(names[i])
						out.Col(1).AppendFrom(col, p)
						out.SetFullLen(out.FullLen() + 1)
						if out.FullLen() == sqlengine.DefaultBatchSize {
							if err := flush(); err != nil {
								return err
							}
						}
					}
				}
			}
		},
	}
}

// pairTypes are the column types of distinct_values' (colname, colval)
// output.
var pairTypes = []row.Type{row.TypeString, row.TypeString}

// assignRecodeIDsUDF is the global step of phase 1: it receives the
// globally-distinct (colname, colval) pairs and emits the recode-map rows
// with consecutive IDs from 1 per column, in sorted value order.
func assignRecodeIDsUDF() *sqlengine.TableUDF {
	return &sqlengine.TableUDF{
		Name:         "assign_recode_ids",
		PerPartition: false,
		OutSchema: func(in row.Schema, args []row.Value) (row.Schema, error) {
			if in.Len() != 2 {
				return row.Schema{}, fmt.Errorf("usage: assign_recode_ids(distinct_pairs_table)")
			}
			return MapSchema(), nil
		},
		Fn: func(ctx *sqlengine.UDFContext, in sqlengine.ColBatchSource, args []row.Value, emit func(*row.ColBatch) error) error {
			byCol := make(map[string][]string)
			for {
				b, ok, err := in.NextCol()
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				for si, n := 0, b.Len(); si < n; si++ {
					p := b.SelPos(si)
					col := strings.ToLower(b.Col(0).StringAt(p))
					byCol[col] = append(byCol[col], b.Col(1).StringAt(p))
				}
			}
			m := NewRecodeMap()
			for col, vals := range byCol {
				m.AddColumn(col, vals)
			}
			out := row.NewColBatch(row.SchemaTypes(MapSchema()))
			for _, r := range m.Rows() {
				out.AppendRow(r)
			}
			return emit(out)
		},
	}
}

var tmpCounter atomic.Int64

// tmpName generates a unique temporary table name.
func tmpName(prefix string) string {
	return fmt.Sprintf("__%s_%d", prefix, tmpCounter.Add(1))
}

// BuildRecodeMap runs the two-phase distributed recode-map construction
// over a catalog table, returning the map and the name of the materialized
// map table M (left in the catalog for the recode join and for the §5.2
// cache).
func BuildRecodeMap(e *sqlengine.Engine, table string, cols []string) (*RecodeMap, string, error) {
	if len(cols) == 0 {
		return nil, "", fmt.Errorf("transform: no categorical columns listed")
	}
	colArg := strings.Join(cols, ",")
	distinctTmp := tmpName("distinct")
	// Phase 1a: one parallel scan computing local distincts for all columns,
	// then a global SELECT DISTINCT.
	sql := fmt.Sprintf(
		"CREATE TABLE %s AS SELECT DISTINCT colname, colval FROM TABLE(distinct_values(%s, '%s'))",
		distinctTmp, table, colArg)
	if _, err := e.Run(sql); err != nil {
		return nil, "", err
	}
	defer e.DropTable(distinctTmp)

	// Phase 1b: assign consecutive recode IDs globally.
	mapTable := tmpName("recodemap")
	sql = fmt.Sprintf(
		"CREATE TABLE %s AS SELECT colname, colval, recodeval FROM TABLE(assign_recode_ids(%s))",
		mapTable, distinctTmp)
	if _, err := e.Run(sql); err != nil {
		return nil, "", err
	}
	res, err := e.Query("SELECT colname, colval, recodeval FROM " + mapTable)
	if err != nil {
		return nil, "", err
	}
	m, err := FromRows(res.Rows())
	if err != nil {
		return nil, "", err
	}
	return m, mapTable, nil
}

// MaterializeMap loads a pre-built RecodeMap (e.g. a §5.2 cached map) into
// the catalog as a map table, returning its name.
func MaterializeMap(e *sqlengine.Engine, m *RecodeMap) (string, error) {
	name := tmpName("recodemap")
	if err := e.LoadTable(name, MapSchema(), m.Rows()); err != nil {
		return "", err
	}
	return name, nil
}

// RecodeJoinSQL generates the paper's phase-2 join query recoding
// spec.RecodeCols of table through mapTable: every other column passes
// through unchanged, and each categorical column c is replaced by
// Mc.recodeVal AS c or, when spec codes it, by its derived columns
// (codingSelects, with k read from m).
func RecodeJoinSQL(schema row.Schema, table, mapTable string, spec Spec, m *RecodeMap) (string, error) {
	cat := make(map[string]bool, len(spec.RecodeCols))
	for _, c := range spec.RecodeCols {
		if _, ok := schema.Col(c); !ok {
			return "", fmt.Errorf("transform: unknown column %q", c)
		}
		cat[strings.ToLower(c)] = true
	}
	coded := make(map[string]bool, len(spec.CodeCols))
	if spec.Coding != CodingNone {
		for _, c := range spec.CodeCols {
			coded[strings.ToLower(c)] = true
		}
	}
	var selects []string
	var froms = []string{table + " AS __t"}
	var wheres []string
	i := 0
	for _, col := range schema.Cols {
		name := strings.ToLower(col.Name)
		if !cat[name] {
			selects = append(selects, "__t."+name+" AS "+name)
			continue
		}
		i++
		alias := fmt.Sprintf("__m%d", i)
		if coded[name] {
			items, err := codingSelects(spec.Coding, alias+".recodeval", name, m.Cardinality(name))
			if err != nil {
				return "", err
			}
			selects = append(selects, items...)
		} else {
			selects = append(selects, alias+".recodeval AS "+name)
		}
		froms = append(froms, mapTable+" AS "+alias)
		wheres = append(wheres,
			fmt.Sprintf("%s.colname = '%s'", alias, name),
			fmt.Sprintf("__t.%s = %s.colval", name, alias))
	}
	return "SELECT " + strings.Join(selects, ", ") +
		" FROM " + strings.Join(froms, ", ") +
		" WHERE " + strings.Join(wheres, " AND "), nil
}
