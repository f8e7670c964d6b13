// Package sqlengine implements the "big SQL system" substrate: a
// massively-parallel SQL engine with a text-protocol-free, in-process
// design — lexer, parser, catalog, logical planner, and a distributed
// executor running one worker per cluster node over hash-partitioned or
// DFS-backed tables.
//
// Its two properties are exactly the ones the paper requires of a big SQL
// system: (1) partitioned parallel execution, and (2) extensibility through
// scalar and *parallel table* user-defined functions (UDFs) — the vehicle
// for the In-SQL transformations of §2 and the streaming sender of §3.
package sqlengine

import (
	"fmt"
	"strconv"
	"strings"

	"sqlml/internal/row"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// SelectStmt is a SELECT query.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     []FromItem
	Where    Expr // nil when absent
	GroupBy  []Expr
	// Having filters groups after aggregation; it may reference the output
	// column names of the select list (including aggregate aliases).
	Having  Expr
	OrderBy []OrderItem
	Limit   int // -1 when absent
}

func (*SelectStmt) stmt() {}

// SelectItem is one entry of the select list.
type SelectItem struct {
	Star          bool   // SELECT * or alias.*
	StarQualifier string // non-empty for alias.*
	Expr          Expr   // nil when Star
	Alias         string
}

// FromItem is one entry of the FROM clause: a base table or a table
// function invocation TABLE(f(...)).
type FromItem struct {
	Table string
	Alias string
	Func  *TableFuncCall
}

// Name returns the binding name of the item (alias, table, or function).
func (f FromItem) Name() string {
	if f.Alias != "" {
		return f.Alias
	}
	if f.Func != nil {
		return f.Func.Name
	}
	return f.Table
}

// TableFuncCall is TABLE(name(arg, ...)) in a FROM clause. Arguments are
// either table references (by name) or literals — exactly the shape the
// paper's UDF examples need: the table to transform plus parameters such as
// the column list or coordinator address.
type TableFuncCall struct {
	Name string
	Args []TableFuncArg
}

// TableFuncArg is one argument of a table function call.
type TableFuncArg struct {
	Table string // table reference when non-empty
	Lit   *Lit   // literal otherwise
}

// OrderItem is one ORDER BY entry.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// CreateTableStmt is CREATE TABLE, either with an explicit column list or
// as CREATE TABLE ... AS SELECT (the materialization path for §5 caching).
type CreateTableStmt struct {
	Name     string
	Cols     []row.Column
	AsSelect *SelectStmt
}

func (*CreateTableStmt) stmt() {}

// InsertStmt is INSERT INTO ... VALUES.
type InsertStmt struct {
	Table string
	Rows  [][]Expr
}

func (*InsertStmt) stmt() {}

// DropTableStmt is DROP TABLE.
type DropTableStmt struct {
	Name string
}

func (*DropTableStmt) stmt() {}

// ShowTablesStmt is SHOW TABLES.
type ShowTablesStmt struct{}

func (*ShowTablesStmt) stmt() {}

// DescribeStmt is DESCRIBE <table>.
type DescribeStmt struct {
	Table string
}

func (*DescribeStmt) stmt() {}

// Expr is a scalar expression. The String form is canonical (upper-cased
// keywords, minimal parentheses) and is what the query rewriter compares
// when testing cache applicability.
type Expr interface {
	fmt.Stringer
	expr()
}

// ColRef references a column, optionally qualified by a table binding name.
type ColRef struct {
	Qualifier string
	Name      string
}

func (*ColRef) expr() {}

// String implements Expr.
func (c *ColRef) String() string {
	if c.Qualifier != "" {
		return strings.ToLower(c.Qualifier) + "." + strings.ToLower(c.Name)
	}
	return strings.ToLower(c.Name)
}

// Lit is a literal value.
type Lit struct {
	V row.Value
}

func (*Lit) expr() {}

// String implements Expr.
func (l *Lit) String() string {
	if l.V.Null {
		return "NULL"
	}
	switch l.V.Kind {
	case row.TypeString:
		return "'" + strings.ReplaceAll(l.V.AsString(), "'", "''") + "'"
	case row.TypeFloat:
		// Always with a decimal point, so DOUBLE 2.0 never prints as the
		// BIGINT 2, and never in exponent form, which the lexer cannot read.
		s := strconv.FormatFloat(l.V.AsFloat(), 'f', -1, 64)
		if !strings.Contains(s, ".") {
			s += ".0"
		}
		return s
	}
	return l.V.String()
}

// BinOp is a binary operation: comparisons (= <> < <= > >=), arithmetic
// (+ - * /), and the logical connectives AND / OR.
type BinOp struct {
	Op   string
	L, R Expr
}

func (*BinOp) expr() {}

// String implements Expr.
func (b *BinOp) String() string {
	return "(" + b.L.String() + " " + b.Op + " " + b.R.String() + ")"
}

// NotExpr is logical negation.
type NotExpr struct {
	E Expr
}

func (*NotExpr) expr() {}

// String implements Expr.
func (n *NotExpr) String() string { return "(NOT " + n.E.String() + ")" }

// IsNullExpr is IS [NOT] NULL.
type IsNullExpr struct {
	E      Expr
	Negate bool
}

func (*IsNullExpr) expr() {}

// String implements Expr.
func (e *IsNullExpr) String() string {
	if e.Negate {
		return "(" + e.E.String() + " IS NOT NULL)"
	}
	return "(" + e.E.String() + " IS NULL)"
}

// InListExpr is expr [NOT] IN (e1, e2, ...).
type InListExpr struct {
	E      Expr
	List   []Expr
	Negate bool
}

func (*InListExpr) expr() {}

// String implements Expr.
func (e *InListExpr) String() string {
	parts := make([]string, len(e.List))
	for i, x := range e.List {
		parts[i] = x.String()
	}
	op := " IN ("
	if e.Negate {
		op = " NOT IN ("
	}
	return "(" + e.E.String() + op + strings.Join(parts, ", ") + "))"
}

// CaseExpr is a searched CASE expression:
// CASE WHEN cond THEN value [WHEN ...] [ELSE value] END.
type CaseExpr struct {
	Whens []CaseWhen
	Else  Expr // nil means NULL
}

// CaseWhen is one WHEN/THEN arm.
type CaseWhen struct {
	Cond Expr
	Then Expr
}

func (*CaseExpr) expr() {}

// String implements Expr.
func (c *CaseExpr) String() string {
	var b strings.Builder
	b.WriteString("CASE")
	for _, w := range c.Whens {
		b.WriteString(" WHEN ")
		b.WriteString(w.Cond.String())
		b.WriteString(" THEN ")
		b.WriteString(w.Then.String())
	}
	if c.Else != nil {
		b.WriteString(" ELSE ")
		b.WriteString(c.Else.String())
	}
	b.WriteString(" END")
	return b.String()
}

// FuncCall is a scalar function or aggregate invocation.
type FuncCall struct {
	Name string
	Args []Expr
	Star bool // COUNT(*)
}

func (*FuncCall) expr() {}

// String implements Expr.
func (f *FuncCall) String() string {
	if f.Star {
		return strings.ToUpper(f.Name) + "(*)"
	}
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = a.String()
	}
	return strings.ToUpper(f.Name) + "(" + strings.Join(parts, ", ") + ")"
}

// Conjuncts flattens nested ANDs into a conjunct list; a nil expression
// yields none. The rewriter and planner both work on conjunct lists.
func Conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*BinOp); ok && b.Op == "AND" {
		return append(Conjuncts(b.L), Conjuncts(b.R)...)
	}
	return []Expr{e}
}

// AndAll rebuilds a conjunction from a list (nil for an empty list).
func AndAll(es []Expr) Expr {
	var out Expr
	for _, e := range es {
		if out == nil {
			out = e
		} else {
			out = &BinOp{Op: "AND", L: out, R: e}
		}
	}
	return out
}
