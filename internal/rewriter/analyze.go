// Package rewriter implements the paper's query rewriter (§4) and the
// cache-applicability analysis behind §5: it normalizes preparation
// queries into a canonical form, decides whether a cached fully-transformed
// result (§5.1) or a cached recode map (§5.2) applies to a new query, and
// generates the rewritten SQL for the cache-hit paths.
package rewriter

import (
	"fmt"
	"sort"
	"strings"

	"sqlml/internal/row"
	"sqlml/internal/sqlengine"
)

// QueryInfo is the canonical form of a select-project-join preparation
// query: table set, equi-join conditions, per-column filter predicates, and
// the projected columns. Aliases are normalized away (column references are
// qualified by base table name), so two differently-aliased spellings of
// the same query compare equal.
type QueryInfo struct {
	// Tables are the base table names, sorted.
	Tables []string
	// JoinConds are canonical join conjunct strings, sorted.
	JoinConds []string
	// Predicates are the non-join conjuncts, keyed by the canonical
	// column they constrain ("table.column"); PredAll holds every
	// non-join conjunct in canonical form for exact-set comparison.
	Predicates map[string][]Pred
	PredAll    []string
	// Projected are the output columns in order: canonical source
	// ("table.column") and output name.
	Projected []ProjectedCol
}

// ProjectedCol is one output column of the analyzed query.
type ProjectedCol struct {
	Source string // canonical "table.column"
	Name   string // output (alias or column) name, lower-case
}

// Pred is one analyzable filter predicate: column op literal.
type Pred struct {
	Column string // canonical "table.column"
	Op     string // = <> < <= > >=
	Value  sqlengine.Expr
	// Raw is the canonical conjunct string (used when the predicate is not
	// in column-op-literal shape and only exact matching applies).
	Raw string
	// Simple reports whether Column/Op/Value are populated.
	Simple bool
	// In holds the literal values of a non-negated `col IN (...)` predicate
	// (nil otherwise); the implication engine reasons over the value sets.
	In []row.Value
}

// Analyze normalizes a SELECT statement. It errors on queries outside the
// cacheable select-project-join class (aggregates, DISTINCT, ORDER BY,
// LIMIT, table functions, OR-predicates at the top level are all rejected
// — they simply don't participate in §5 caching).
func Analyze(sel *sqlengine.SelectStmt, schemas func(table string) (colExists func(string) bool, err error)) (*QueryInfo, error) {
	if sel.Distinct || len(sel.GroupBy) > 0 || sel.Having != nil || len(sel.OrderBy) > 0 || sel.Limit >= 0 {
		return nil, fmt.Errorf("rewriter: only plain select-project-join queries are analyzable")
	}

	// Bind aliases to base tables; self-joins make alias normalization
	// ambiguous and are rejected.
	aliasToTable := make(map[string]string)
	seenTable := make(map[string]bool)
	info := &QueryInfo{Predicates: make(map[string][]Pred)}
	for _, item := range sel.From {
		if item.Func != nil {
			return nil, fmt.Errorf("rewriter: table functions are not analyzable")
		}
		table := strings.ToLower(item.Table)
		if seenTable[table] {
			return nil, fmt.Errorf("rewriter: self-joins are not analyzable")
		}
		seenTable[table] = true
		aliasToTable[strings.ToLower(item.Name())] = table
		info.Tables = append(info.Tables, table)
	}
	sort.Strings(info.Tables)

	// canonical resolves a column reference to "table.column".
	canonical := func(cr *sqlengine.ColRef) (string, error) {
		name := strings.ToLower(cr.Name)
		if cr.Qualifier != "" {
			table, ok := aliasToTable[strings.ToLower(cr.Qualifier)]
			if !ok {
				return "", fmt.Errorf("rewriter: unknown alias %q", cr.Qualifier)
			}
			return table + "." + name, nil
		}
		// Unqualified: resolve against the table schemas.
		var owner string
		for _, table := range info.Tables {
			exists, err := schemas(table)
			if err != nil {
				return "", err
			}
			if exists(name) {
				if owner != "" {
					return "", fmt.Errorf("rewriter: ambiguous column %q", cr.Name)
				}
				owner = table
			}
		}
		if owner == "" {
			return "", fmt.Errorf("rewriter: unknown column %q", cr.Name)
		}
		return owner + "." + name, nil
	}

	// canonExpr rewrites an expression with canonical column qualifiers and
	// returns its canonical string.
	var canonExpr func(e sqlengine.Expr) (string, error)
	canonExpr = func(e sqlengine.Expr) (string, error) {
		switch x := e.(type) {
		case *sqlengine.ColRef:
			return canonical(x)
		case *sqlengine.Lit:
			return x.String(), nil
		case *sqlengine.BinOp:
			l, err := canonExpr(x.L)
			if err != nil {
				return "", err
			}
			r, err := canonExpr(x.R)
			if err != nil {
				return "", err
			}
			return "(" + l + " " + x.Op + " " + r + ")", nil
		case *sqlengine.NotExpr:
			s, err := canonExpr(x.E)
			if err != nil {
				return "", err
			}
			return "(NOT " + s + ")", nil
		case *sqlengine.IsNullExpr:
			s, err := canonExpr(x.E)
			if err != nil {
				return "", err
			}
			if x.Negate {
				return "(" + s + " IS NOT NULL)", nil
			}
			return "(" + s + " IS NULL)", nil
		case *sqlengine.InListExpr:
			s, err := canonExpr(x.E)
			if err != nil {
				return "", err
			}
			parts := make([]string, len(x.List))
			for i, le := range x.List {
				p, err := canonExpr(le)
				if err != nil {
					return "", err
				}
				parts[i] = p
			}
			op := " IN ("
			if x.Negate {
				op = " NOT IN ("
			}
			return "(" + s + op + strings.Join(parts, ", ") + "))", nil
		default:
			return "", fmt.Errorf("rewriter: %T not analyzable", e)
		}
	}

	for _, conj := range sqlengine.Conjuncts(sel.Where) {
		// Equi-join: colref = colref across different tables.
		if b, ok := conj.(*sqlengine.BinOp); ok && b.Op == "=" {
			lc, lok := b.L.(*sqlengine.ColRef)
			rc, rok := b.R.(*sqlengine.ColRef)
			if lok && rok {
				l, err := canonical(lc)
				if err != nil {
					return nil, err
				}
				r, err := canonical(rc)
				if err != nil {
					return nil, err
				}
				if tableOf(l) != tableOf(r) {
					// Order the two sides so A=B and B=A compare equal.
					if l > r {
						l, r = r, l
					}
					info.JoinConds = append(info.JoinConds, l+" = "+r)
					continue
				}
			}
		}
		raw, err := canonExpr(conj)
		if err != nil {
			return nil, err
		}
		p := Pred{Raw: raw}
		if col, op, lit, ok := simpleShape(conj, canonical); ok {
			p.Column, p.Op, p.Value, p.Simple = col, op, lit, true
		} else if col, vals, ok := inListShape(conj, canonical); ok {
			p.Column, p.In = col, vals
		} else if col, ok := singleColumn(conj, canonical); ok {
			p.Column = col
		}
		key := p.Column
		if key == "" {
			key = "\x00complex"
		}
		info.Predicates[key] = append(info.Predicates[key], p)
		info.PredAll = append(info.PredAll, raw)
	}
	sort.Strings(info.JoinConds)
	sort.Strings(info.PredAll)

	for _, item := range sel.Items {
		if item.Star {
			return nil, fmt.Errorf("rewriter: star projections are not analyzable")
		}
		cr, ok := item.Expr.(*sqlengine.ColRef)
		if !ok {
			return nil, fmt.Errorf("rewriter: projected expressions must be plain columns")
		}
		src, err := canonical(cr)
		if err != nil {
			return nil, err
		}
		name := strings.ToLower(item.Alias)
		if name == "" {
			name = strings.ToLower(cr.Name)
		}
		info.Projected = append(info.Projected, ProjectedCol{Source: src, Name: name})
	}
	if len(info.Projected) == 0 {
		return nil, fmt.Errorf("rewriter: query projects nothing")
	}
	return info, nil
}

// AnalyzeSQL parses and analyzes a query against an engine's catalog.
func AnalyzeSQL(e *sqlengine.Engine, sql string) (*QueryInfo, error) {
	sel, err := sqlengine.ParseSelect(sql)
	if err != nil {
		return nil, err
	}
	return Analyze(sel, func(table string) (func(string) bool, error) {
		t, err := e.Catalog().Get(table)
		if err != nil {
			return nil, err
		}
		return func(col string) bool { return t.Schema.ColIndex(col) >= 0 }, nil
	})
}

func tableOf(canonical string) string {
	i := strings.IndexByte(canonical, '.')
	if i < 0 {
		return canonical
	}
	return canonical[:i]
}

// simpleShape matches `col op literal` (or the mirrored literal op col).
func simpleShape(e sqlengine.Expr, canonical func(*sqlengine.ColRef) (string, error)) (col, op string, lit sqlengine.Expr, ok bool) {
	b, isBin := e.(*sqlengine.BinOp)
	if !isBin {
		return "", "", nil, false
	}
	switch b.Op {
	case "=", "<>", "<", "<=", ">", ">=":
	default:
		return "", "", nil, false
	}
	if cr, okL := b.L.(*sqlengine.ColRef); okL {
		if l, okR := b.R.(*sqlengine.Lit); okR {
			c, err := canonical(cr)
			if err != nil {
				return "", "", nil, false
			}
			return c, b.Op, l, true
		}
	}
	if cr, okR := b.R.(*sqlengine.ColRef); okR {
		if l, okL := b.L.(*sqlengine.Lit); okL {
			c, err := canonical(cr)
			if err != nil {
				return "", "", nil, false
			}
			return c, mirrorOp(b.Op), l, true
		}
	}
	return "", "", nil, false
}

// inListShape matches a non-negated `col IN (lit, lit, ...)`.
func inListShape(e sqlengine.Expr, canonical func(*sqlengine.ColRef) (string, error)) (string, []row.Value, bool) {
	in, ok := e.(*sqlengine.InListExpr)
	if !ok || in.Negate {
		return "", nil, false
	}
	cr, ok := in.E.(*sqlengine.ColRef)
	if !ok {
		return "", nil, false
	}
	col, err := canonical(cr)
	if err != nil {
		return "", nil, false
	}
	vals := make([]row.Value, 0, len(in.List))
	for _, le := range in.List {
		lit, ok := le.(*sqlengine.Lit)
		if !ok || lit.V.Null {
			return "", nil, false
		}
		vals = append(vals, lit.V)
	}
	return col, vals, true
}

func mirrorOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	default:
		return op
	}
}

// singleColumn reports the canonical column when the expression references
// exactly one column.
func singleColumn(e sqlengine.Expr, canonical func(*sqlengine.ColRef) (string, error)) (string, bool) {
	var cols []string
	bad := false
	var walk func(sqlengine.Expr)
	walk = func(e sqlengine.Expr) {
		switch x := e.(type) {
		case *sqlengine.ColRef:
			c, err := canonical(x)
			if err != nil {
				bad = true
				return
			}
			cols = append(cols, c)
		case *sqlengine.BinOp:
			walk(x.L)
			walk(x.R)
		case *sqlengine.NotExpr:
			walk(x.E)
		case *sqlengine.IsNullExpr:
			walk(x.E)
		case *sqlengine.InListExpr:
			walk(x.E)
			for _, le := range x.List {
				walk(le)
			}
		}
	}
	walk(e)
	if bad || len(cols) == 0 {
		return "", false
	}
	first := cols[0]
	for _, c := range cols[1:] {
		if c != first {
			return "", false
		}
	}
	return first, true
}

// SameJoinStructure reports whether two queries read the same tables with
// the same join conditions — the shared precondition of §5.1 and §5.2.
func SameJoinStructure(a, b *QueryInfo) bool {
	return equalStrings(a.Tables, b.Tables) && equalStrings(a.JoinConds, b.JoinConds)
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ProjectedSources returns the canonical sources of the projected columns.
func (q *QueryInfo) ProjectedSources() map[string]string {
	out := make(map[string]string, len(q.Projected))
	for _, p := range q.Projected {
		out[p.Source] = p.Name
	}
	return out
}
