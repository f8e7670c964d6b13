package sqlengine

import (
	"fmt"
	"math"
	"strings"

	"sqlml/internal/row"
)

// scope resolves column references against the bindings visible at a point
// in the plan (one binding per FROM item, or one for a derived input).
type scope struct {
	bindings []binding
}

type binding struct {
	name   string // binding (alias) name, lower-cased
	schema row.Schema
	offset int // column offset of this binding in the combined row
}

func newScope() *scope { return &scope{} }

func (s *scope) add(name string, schema row.Schema) error {
	name = strings.ToLower(name)
	for _, b := range s.bindings {
		if b.name == name && name != "" {
			return fmt.Errorf("sql: duplicate table binding %q", name)
		}
	}
	off := s.width()
	s.bindings = append(s.bindings, binding{name: name, schema: schema, offset: off})
	return nil
}

func (s *scope) width() int {
	n := 0
	for _, b := range s.bindings {
		n += b.schema.Len()
	}
	return n
}

// combined returns the concatenated schema of all bindings. Duplicate
// column names across bindings are allowed here; they are only an error if
// referenced ambiguously.
func (s *scope) combined() row.Schema {
	var cols []row.Column
	for _, b := range s.bindings {
		cols = append(cols, b.schema.Cols...)
	}
	return row.Schema{Cols: cols}
}

// resolve finds the combined-row index of a (qualified) column reference.
func (s *scope) resolve(qualifier, name string) (int, row.Column, error) {
	bi, ci, err := s.lookup(qualifier, name)
	if err != nil {
		return 0, row.Column{}, err
	}
	b := s.bindings[bi]
	return b.offset + ci, b.schema.Cols[ci], nil
}

// lookup finds the binding of a (qualified) column reference and the
// column's index within it.
func (s *scope) lookup(qualifier, name string) (bi, ci int, err error) {
	qualifier = strings.ToLower(qualifier)
	bi = -1
	for i, b := range s.bindings {
		if qualifier != "" && b.name != qualifier {
			continue
		}
		if c := b.schema.ColIndex(name); c >= 0 {
			if bi >= 0 {
				return 0, 0, fmt.Errorf("sql: ambiguous column %q", name)
			}
			bi, ci = i, c
		}
	}
	if bi < 0 {
		if qualifier != "" {
			return 0, 0, fmt.Errorf("sql: unknown column %s.%s", qualifier, name)
		}
		return 0, 0, fmt.Errorf("sql: unknown column %q", name)
	}
	return bi, ci, nil
}

// columnsOf calls visit with the binding and column index of every column
// reference in exprs, in walk order, and stops at the first that does not
// resolve.
func (s *scope) columnsOf(visit func(bi, ci int), exprs ...Expr) error {
	var err error
	find := func(sub Expr) {
		if cr, ok := sub.(*ColRef); ok && err == nil {
			var bi, ci int
			if bi, ci, err = s.lookup(cr.Qualifier, cr.Name); err == nil {
				visit(bi, ci)
			}
		}
	}
	for _, ex := range exprs {
		walkExpr(ex, find)
	}
	return err
}

// Checked BIGINT arithmetic: ok is false when the exact result leaves the
// int64 range, so the query fails instead of wrapping. Unary minus parses
// as 0 - x, so subInt64 covers it.
func addInt64(a, b int64) (int64, bool) {
	c := a + b
	return c, (a^c)&(b^c) >= 0 // wrapped iff c's sign differs from both operands'
}

func subInt64(a, b int64) (int64, bool) {
	c := a - b
	return c, (a^b)&(a^c) >= 0 // wrapped iff the operands' signs differ and c's differs from a's
}

func mulInt64(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	c := a * b
	return c, c/b == a && !(b == -1 && a == math.MinInt64)
}

func divInt64(a, b int64) (int64, bool) {
	return a / b, !(b == -1 && a == math.MinInt64)
}

// errIntOverflow is the error of a BIGINT operator whose result does not fit.
func errIntOverflow(op byte) error { return fmt.Errorf("sql: BIGINT overflow in %c", op) }

func numericType(t row.Type) bool { return t == row.TypeInt || t == row.TypeFloat }

func comparable(a, b row.Type) bool {
	if a == b {
		return true
	}
	return numericType(a) && numericType(b)
}

// isNullLit reports whether e is a bare NULL literal. SQL's NULL has no
// type of its own: the compiler gives it the type of a typed peer — the
// other operand of a binary operator (BOOLEAN under AND/OR), the other arms
// of a CASE, the other arguments of COALESCE — and leaves it VARCHAR when
// it has none.
func isNullLit(e Expr) bool {
	l, ok := e.(*Lit)
	return ok && l.V.Null
}

var aggregateNames = map[string]bool{
	"count": true, "sum": true, "avg": true, "min": true, "max": true,
}

func isAggregateName(name string) bool { return aggregateNames[strings.ToLower(name)] }
