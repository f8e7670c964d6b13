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
	qualifier = strings.ToLower(qualifier)
	found := -1
	var col row.Column
	for _, b := range s.bindings {
		if qualifier != "" && b.name != qualifier {
			continue
		}
		if i := b.schema.ColIndex(name); i >= 0 {
			if found >= 0 {
				return 0, row.Column{}, fmt.Errorf("sql: ambiguous column %q", name)
			}
			found = b.offset + i
			col = b.schema.Cols[i]
		}
	}
	if found < 0 {
		if qualifier != "" {
			return 0, row.Column{}, fmt.Errorf("sql: unknown column %s.%s", qualifier, name)
		}
		return 0, row.Column{}, fmt.Errorf("sql: unknown column %q", name)
	}
	return found, col, nil
}

// evalFn evaluates a compiled expression against one combined row.
type evalFn func(r row.Row) (row.Value, error)

// compile type-checks an expression against the scope and returns an
// evaluator plus the static result type.
func compile(e Expr, s *scope, reg *Registry) (evalFn, row.Type, error) {
	switch x := e.(type) {
	case *Lit:
		v := x.V
		return func(row.Row) (row.Value, error) { return v, nil }, v.Kind, nil

	case *ColRef:
		idx, col, err := s.resolve(x.Qualifier, x.Name)
		if err != nil {
			return nil, 0, err
		}
		return func(r row.Row) (row.Value, error) { return r[idx], nil }, col.Type, nil

	case *NotExpr:
		inner, t, err := compile(x.E, s, reg)
		if err != nil {
			return nil, 0, err
		}
		if t != row.TypeBool {
			return nil, 0, fmt.Errorf("sql: NOT requires a BOOLEAN operand")
		}
		return func(r row.Row) (row.Value, error) {
			v, err := inner(r)
			if err != nil {
				return row.Value{}, err
			}
			if v.Null {
				return row.NullOf(row.TypeBool), nil
			}
			return row.Bool(!v.AsBool()), nil
		}, row.TypeBool, nil

	case *IsNullExpr:
		inner, _, err := compile(x.E, s, reg)
		if err != nil {
			return nil, 0, err
		}
		neg := x.Negate
		return func(r row.Row) (row.Value, error) {
			v, err := inner(r)
			if err != nil {
				return row.Value{}, err
			}
			return row.Bool(v.Null != neg), nil
		}, row.TypeBool, nil

	case *InListExpr:
		inner, _, err := compile(x.E, s, reg)
		if err != nil {
			return nil, 0, err
		}
		elems := make([]evalFn, len(x.List))
		for i, le := range x.List {
			fn, _, err := compile(le, s, reg)
			if err != nil {
				return nil, 0, err
			}
			elems[i] = fn
		}
		neg := x.Negate
		return func(r row.Row) (row.Value, error) {
			v, err := inner(r)
			if err != nil {
				return row.Value{}, err
			}
			if v.Null {
				return row.Bool(false), nil
			}
			for _, fn := range elems {
				ev, err := fn(r)
				if err != nil {
					return row.Value{}, err
				}
				if !ev.Null && v.Equal(ev) {
					return row.Bool(!neg), nil
				}
			}
			return row.Bool(neg), nil
		}, row.TypeBool, nil

	case *FuncCall:
		if isAggregateName(x.Name) {
			return nil, 0, fmt.Errorf("sql: aggregate %s not allowed here", strings.ToUpper(x.Name))
		}
		udf, ok := reg.Scalar(x.Name)
		if !ok {
			return nil, 0, fmt.Errorf("sql: unknown function %q", x.Name)
		}
		args := make([]evalFn, len(x.Args))
		types := make([]row.Type, len(x.Args))
		for i, a := range x.Args {
			fn, t, err := compile(a, s, reg)
			if err != nil {
				return nil, 0, err
			}
			args[i] = fn
			types[i] = t
		}
		ret, err := udf.ReturnType(types)
		if err != nil {
			return nil, 0, fmt.Errorf("sql: %s: %w", udf.Name, err)
		}
		return func(r row.Row) (row.Value, error) {
			vals := make([]row.Value, len(args))
			for i, fn := range args {
				v, err := fn(r)
				if err != nil {
					return row.Value{}, err
				}
				vals[i] = v
			}
			out, err := udf.Fn(vals)
			if err != nil {
				return row.Value{}, fmt.Errorf("sql: %s: %w", udf.Name, err)
			}
			return out, nil
		}, ret, nil

	case *BinOp:
		return compileBinOp(x, s, reg)

	case *CaseExpr:
		return compileCase(x, s, reg)
	}
	return nil, 0, fmt.Errorf("sql: cannot compile %T", e)
}

func compileBinOp(x *BinOp, s *scope, reg *Registry) (evalFn, row.Type, error) {
	lf, lt, err := compile(x.L, s, reg)
	if err != nil {
		return nil, 0, err
	}
	rf, rt, err := compile(x.R, s, reg)
	if err != nil {
		return nil, 0, err
	}
	switch x.Op {
	case "AND", "OR":
		if lt != row.TypeBool || rt != row.TypeBool {
			return nil, 0, fmt.Errorf("sql: %s requires BOOLEAN operands", x.Op)
		}
		and := x.Op == "AND"
		return func(r row.Row) (row.Value, error) {
			lv, err := lf(r)
			if err != nil {
				return row.Value{}, err
			}
			// Treat NULL as false at connectives (two-valued filter logic).
			lb := !lv.Null && lv.AsBool()
			if and && !lb {
				return row.Bool(false), nil
			}
			if !and && lb {
				return row.Bool(true), nil
			}
			rv, err := rf(r)
			if err != nil {
				return row.Value{}, err
			}
			rb := !rv.Null && rv.AsBool()
			return row.Bool(rb), nil
		}, row.TypeBool, nil

	case "=", "<>", "<", "<=", ">", ">=":
		if !comparable(lt, rt) {
			return nil, 0, fmt.Errorf("sql: cannot compare %s with %s", lt, rt)
		}
		op := x.Op
		return func(r row.Row) (row.Value, error) {
			lv, err := lf(r)
			if err != nil {
				return row.Value{}, err
			}
			rv, err := rf(r)
			if err != nil {
				return row.Value{}, err
			}
			if lv.Null || rv.Null {
				return row.Bool(false), nil
			}
			switch op {
			case "=":
				return row.Bool(lv.Equal(rv)), nil
			case "<>":
				return row.Bool(!lv.Equal(rv)), nil
			}
			c := lv.Compare(rv)
			switch op {
			case "<":
				return row.Bool(c < 0), nil
			case "<=":
				return row.Bool(c <= 0), nil
			case ">":
				return row.Bool(c > 0), nil
			default:
				return row.Bool(c >= 0), nil
			}
		}, row.TypeBool, nil

	case "+", "-", "*", "/":
		if !numericType(lt) || !numericType(rt) {
			return nil, 0, fmt.Errorf("sql: %s requires numeric operands", x.Op)
		}
		outType := row.TypeInt
		if lt == row.TypeFloat || rt == row.TypeFloat {
			outType = row.TypeFloat
		}
		op := x.Op
		return func(r row.Row) (row.Value, error) {
			lv, err := lf(r)
			if err != nil {
				return row.Value{}, err
			}
			rv, err := rf(r)
			if err != nil {
				return row.Value{}, err
			}
			if lv.Null || rv.Null {
				return row.NullOf(outType), nil
			}
			if outType == row.TypeInt {
				a, b := lv.AsInt(), rv.AsInt()
				var c int64
				ok := true
				switch op {
				case "+":
					c, ok = addInt64(a, b)
				case "-":
					c, ok = subInt64(a, b)
				case "*":
					c, ok = mulInt64(a, b)
				default:
					if b == 0 {
						return row.Value{}, fmt.Errorf("sql: division by zero")
					}
					c, ok = divInt64(a, b)
				}
				if !ok {
					return row.Value{}, errIntOverflow(op[0])
				}
				return row.Int(c), nil
			}
			a, b := lv.AsFloat(), rv.AsFloat()
			switch op {
			case "+":
				return row.Float(a + b), nil
			case "-":
				return row.Float(a - b), nil
			case "*":
				return row.Float(a * b), nil
			default:
				if b == 0 {
					return row.Value{}, fmt.Errorf("sql: division by zero")
				}
				return row.Float(a / b), nil
			}
		}, outType, nil
	}
	return nil, 0, fmt.Errorf("sql: unknown operator %q", x.Op)
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

var aggregateNames = map[string]bool{
	"count": true, "sum": true, "avg": true, "min": true, "max": true,
}

func isAggregateName(name string) bool { return aggregateNames[strings.ToLower(name)] }

// compileCase type-checks a searched CASE: all conditions BOOLEAN, all
// result arms of one common type (numerics unify to DOUBLE).
func compileCase(x *CaseExpr, s *scope, reg *Registry) (evalFn, row.Type, error) {
	type arm struct {
		cond evalFn
		then evalFn
		t    row.Type
	}
	arms := make([]arm, len(x.Whens))
	var outType row.Type
	seen := false
	unify := func(t row.Type) error {
		if !seen {
			outType, seen = t, true
			return nil
		}
		if outType == t {
			return nil
		}
		if numericType(outType) && numericType(t) {
			outType = row.TypeFloat
			return nil
		}
		return fmt.Errorf("sql: CASE arms mix %s and %s", outType, t)
	}
	for i, w := range x.Whens {
		cond, ct, err := compile(w.Cond, s, reg)
		if err != nil {
			return nil, 0, err
		}
		if ct != row.TypeBool {
			return nil, 0, fmt.Errorf("sql: CASE WHEN condition must be BOOLEAN, got %s", ct)
		}
		then, tt, err := compile(w.Then, s, reg)
		if err != nil {
			return nil, 0, err
		}
		if err := unify(tt); err != nil {
			return nil, 0, err
		}
		arms[i] = arm{cond: cond, then: then, t: tt}
	}
	var elseFn evalFn
	if x.Else != nil {
		fn, t, err := compile(x.Else, s, reg)
		if err != nil {
			return nil, 0, err
		}
		if err := unify(t); err != nil {
			return nil, 0, err
		}
		elseFn = fn
	}
	coerce := func(v row.Value) (row.Value, error) {
		if v.Null || v.Kind == outType {
			if v.Null {
				return row.NullOf(outType), nil
			}
			return v, nil
		}
		return v.Coerce(outType)
	}
	return func(r row.Row) (row.Value, error) {
		for _, a := range arms {
			c, err := a.cond(r)
			if err != nil {
				return row.Value{}, err
			}
			if !c.Null && c.AsBool() {
				v, err := a.then(r)
				if err != nil {
					return row.Value{}, err
				}
				return coerce(v)
			}
		}
		if elseFn == nil {
			return row.NullOf(outType), nil
		}
		v, err := elseFn(r)
		if err != nil {
			return row.Value{}, err
		}
		return coerce(v)
	}, outType, nil
}
