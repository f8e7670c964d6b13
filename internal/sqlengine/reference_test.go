package sqlengine

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"

	"sqlml/internal/row"
)

// partitions pivots the table's managed partitions to rows, the form the
// reference evaluator reads.
func (t *Table) partitions() [][]row.Row {
	parts := t.chunks()
	out := make([][]row.Row, len(parts))
	for i, p := range parts {
		out[i] = chunkRows(p)
	}
	return out
}

// referenceQuery is a deliberately naive SELECT evaluator, the oracle the
// engine is held to. From the engine it shares the parser (ParseSelect),
// the scope, the registry's function type rules and the catalog's managed
// partitions, nothing else: its expressions run on its own row evaluator
// (compile, below), and it has no planner, no predicate pushdown, no hash
// join, no vector kernels, no pool, no partial aggregation and no hash
// table. It reads every FROM table's partitions
// in partition order, forms the cross product in FROM order, keeps the
// rows WHERE is TRUE for, groups them in a Go map with its own
// accumulators, then applies HAVING, the projection, DISTINCT, a stable
// ORDER BY and LIMIT.
func referenceQuery(e *Engine, sql string) ([]row.Row, error) {
	sel, err := ParseSelect(sql)
	if err != nil {
		return nil, err
	}
	reg := e.Registry()

	sc := newScope()
	rows := []row.Row{{}}
	for _, item := range sel.From {
		if item.Func != nil {
			return nil, fmt.Errorf("reference: table function %q not supported", item.Func.Name)
		}
		t, err := e.Catalog().Get(item.Table)
		if err != nil {
			return nil, err
		}
		if err := sc.add(item.Name(), t.Schema); err != nil {
			return nil, err
		}
		var next []row.Row
		for _, r := range rows {
			for _, part := range t.partitions() {
				for _, tr := range part {
					next = append(next, append(append(row.Row(nil), r...), tr...))
				}
			}
		}
		rows = next
	}

	if sel.Where != nil {
		rows, err = refFilter(sel.Where, sc, reg, rows)
		if err != nil {
			return nil, err
		}
	}

	var out []row.Row
	var names []string
	var types []row.Type
	if refIsAggregate(sel) {
		out, names, types, err = refAggregate(sel, sc, reg, rows)
	} else {
		out, names, types, err = refProject(sel, sc, reg, rows)
	}
	if err != nil {
		return nil, err
	}

	// HAVING and ORDER BY see the output columns by name.
	cols := make([]row.Column, len(names))
	seen := make(map[string]int)
	for i, n := range names {
		seen[strings.ToLower(n)]++
		if c := seen[strings.ToLower(n)]; c > 1 {
			n = fmt.Sprintf("%s_%d", n, c)
		}
		cols[i] = row.Column{Name: n, Type: types[i]}
	}
	outSchema, err := row.NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	osc := newScope()
	if err := osc.add("", outSchema); err != nil {
		return nil, err
	}

	if sel.Having != nil {
		if !refIsAggregate(sel) {
			return nil, fmt.Errorf("reference: HAVING without aggregation")
		}
		if out, err = refFilter(sel.Having, osc, reg, out); err != nil {
			return nil, err
		}
	}
	if sel.Distinct {
		seenRow := make(map[string]bool)
		var kept []row.Row
		for _, r := range out {
			if k := refKey(r); !seenRow[k] {
				seenRow[k] = true
				kept = append(kept, r)
			}
		}
		out = kept
	}
	if len(sel.OrderBy) > 0 {
		keyed := make([]struct{ r, k row.Row }, len(out))
		for i, r := range out {
			keyed[i].r = r
		}
		for _, it := range sel.OrderBy {
			fn, _, err := compile(it.Expr, osc, reg)
			if err != nil {
				return nil, err
			}
			for i := range keyed {
				v, err := fn(keyed[i].r)
				if err != nil {
					return nil, err
				}
				keyed[i].k = append(keyed[i].k, v)
			}
		}
		sort.SliceStable(keyed, func(a, b int) bool {
			for ki, it := range sel.OrderBy {
				c := keyed[a].k[ki].Compare(keyed[b].k[ki])
				if it.Desc {
					c = -c
				}
				if c != 0 {
					return c < 0
				}
			}
			return false
		})
		for i := range keyed {
			out[i] = keyed[i].r
		}
	}
	if sel.Limit >= 0 && len(out) > sel.Limit {
		out = out[:sel.Limit]
	}
	return out, nil
}

// refFilter keeps the rows pred is TRUE for.
func refFilter(pred Expr, sc *scope, reg *Registry, rows []row.Row) ([]row.Row, error) {
	fn, t, err := compile(pred, sc, reg)
	if err != nil {
		return nil, err
	}
	if t != row.TypeBool {
		return nil, fmt.Errorf("reference: predicate is %s", t)
	}
	var kept []row.Row
	for _, r := range rows {
		v, err := fn(r)
		if err != nil {
			return nil, err
		}
		if !v.Null && v.AsBool() {
			kept = append(kept, r)
		}
	}
	return kept, nil
}

// refAggName returns the lower-cased aggregate name of a top-level
// aggregate call, or "".
func refAggName(ex Expr) string {
	fc, ok := ex.(*FuncCall)
	if !ok {
		return ""
	}
	switch n := strings.ToLower(fc.Name); n {
	case "count", "sum", "avg", "min", "max":
		return n
	}
	return ""
}

func refIsAggregate(sel *SelectStmt) bool {
	if len(sel.GroupBy) > 0 {
		return true
	}
	for _, it := range sel.Items {
		if it.Expr != nil && refAggName(it.Expr) != "" {
			return true
		}
	}
	return false
}

func refOutputName(item SelectItem) string {
	if item.Alias != "" {
		return item.Alias
	}
	switch x := item.Expr.(type) {
	case *ColRef:
		return x.Name
	case *FuncCall:
		return strings.ToLower(x.Name)
	}
	return "expr"
}

func refProject(sel *SelectStmt, sc *scope, reg *Registry, rows []row.Row) ([]row.Row, []string, []row.Type, error) {
	var fns []evalFn
	var names []string
	var types []row.Type
	for _, item := range sel.Items {
		if !item.Star {
			fn, t, err := compile(item.Expr, sc, reg)
			if err != nil {
				return nil, nil, nil, err
			}
			fns, names, types = append(fns, fn), append(names, refOutputName(item)), append(types, t)
			continue
		}
		matched := false
		for _, b := range sc.bindings {
			if item.StarQualifier != "" && !strings.EqualFold(b.name, item.StarQualifier) {
				continue
			}
			matched = true
			for _, col := range b.schema.Cols {
				fn, t, err := compile(&ColRef{Qualifier: b.name, Name: col.Name}, sc, reg)
				if err != nil {
					return nil, nil, nil, err
				}
				fns, names, types = append(fns, fn), append(names, col.Name), append(types, t)
			}
		}
		if !matched {
			return nil, nil, nil, fmt.Errorf("reference: no binding %q", item.StarQualifier)
		}
	}
	out := make([]row.Row, len(rows))
	for i, r := range rows {
		o := make(row.Row, len(fns))
		for j, fn := range fns {
			v, err := fn(r)
			if err != nil {
				return nil, nil, nil, err
			}
			o[j] = v
		}
		out[i] = o
	}
	return out, names, types, nil
}

// refAcc is one aggregate's accumulator within one group; n counts the
// non-NULL inputs (every row, for COUNT(*)).
type refAcc struct {
	n        int64
	sumI     int64
	sumF     float64
	min, max row.Value
}

// refAggregate groups rows by the GROUP BY values in a Go map (groups in
// first-seen order) and folds each aggregate with refAcc. A non-aggregate
// item must be one of the GROUP BY expressions; it is evaluated over the
// group's first row.
func refAggregate(sel *SelectStmt, sc *scope, reg *Registry, rows []row.Row) ([]row.Row, []string, []row.Type, error) {
	keyFns := make([]evalFn, len(sel.GroupBy))
	for i, g := range sel.GroupBy {
		fn, _, err := compile(g, sc, reg)
		if err != nil {
			return nil, nil, nil, err
		}
		keyFns[i] = fn
	}
	type item struct {
		agg     string // "" for a GROUP BY item
		star    bool
		fn      evalFn
		argType row.Type
	}
	items := make([]item, len(sel.Items))
	names := make([]string, len(sel.Items))
	types := make([]row.Type, len(sel.Items))
	for i, it := range sel.Items {
		if it.Star {
			return nil, nil, nil, fmt.Errorf("reference: * with aggregation")
		}
		names[i] = refOutputName(it)
		agg := refAggName(it.Expr)
		if agg == "" {
			inGroupBy := false
			for _, g := range sel.GroupBy {
				inGroupBy = inGroupBy || g.String() == it.Expr.String()
			}
			if !inGroupBy {
				return nil, nil, nil, fmt.Errorf("reference: %s is not grouped", it.Expr)
			}
			fn, t, err := compile(it.Expr, sc, reg)
			if err != nil {
				return nil, nil, nil, err
			}
			items[i], types[i] = item{fn: fn}, t
			continue
		}
		fc := it.Expr.(*FuncCall)
		x := item{agg: agg, star: fc.Star}
		switch {
		case fc.Star && agg != "count":
			return nil, nil, nil, fmt.Errorf("reference: %s(*)", agg)
		case !fc.Star && len(fc.Args) != 1:
			return nil, nil, nil, fmt.Errorf("reference: %s arity %d", agg, len(fc.Args))
		case !fc.Star:
			fn, t, err := compile(fc.Args[0], sc, reg)
			if err != nil {
				return nil, nil, nil, err
			}
			if (agg == "sum" || agg == "avg") && t != row.TypeInt && t != row.TypeFloat {
				return nil, nil, nil, fmt.Errorf("reference: %s over %s", agg, t)
			}
			x.fn, x.argType = fn, t
		}
		items[i] = x
		switch agg {
		case "count":
			types[i] = row.TypeInt
		case "avg":
			types[i] = row.TypeFloat
		default:
			types[i] = x.argType
		}
	}

	type group struct {
		first row.Row
		accs  []refAcc
	}
	groups := make(map[string]*group)
	var order []*group
	for _, r := range rows {
		keyVals := make(row.Row, len(keyFns))
		for i, fn := range keyFns {
			v, err := fn(r)
			if err != nil {
				return nil, nil, nil, err
			}
			keyVals[i] = v
		}
		k := refKey(keyVals)
		g := groups[k]
		if g == nil {
			g = &group{first: r, accs: make([]refAcc, len(items))}
			groups[k] = g
			order = append(order, g)
		}
		for i, x := range items {
			a := &g.accs[i]
			switch {
			case x.agg == "":
			case x.star:
				a.n++
			default:
				v, err := x.fn(r)
				if err != nil {
					return nil, nil, nil, err
				}
				if v.Null {
					continue
				}
				if a.n == 0 || v.Compare(a.min) < 0 {
					a.min = v
				}
				if a.n == 0 || v.Compare(a.max) > 0 {
					a.max = v
				}
				a.n++
				if x.argType == row.TypeInt {
					a.sumI += v.AsInt()
				} else if x.argType == row.TypeFloat {
					a.sumF += v.AsFloat()
				}
			}
		}
	}
	// A global aggregate over zero rows still yields one row.
	if len(sel.GroupBy) == 0 && len(order) == 0 {
		order = append(order, &group{accs: make([]refAcc, len(items))})
	}

	out := make([]row.Row, len(order))
	for gi, g := range order {
		o := make(row.Row, len(items))
		for i, x := range items {
			a := g.accs[i]
			switch {
			case x.agg == "":
				v, err := x.fn(g.first)
				if err != nil {
					return nil, nil, nil, err
				}
				o[i] = v
			case x.agg == "count":
				o[i] = row.Int(a.n)
			case a.n == 0:
				o[i] = row.NullOf(types[i])
			case x.agg == "min":
				o[i] = a.min
			case x.agg == "max":
				o[i] = a.max
			case x.agg == "sum" && x.argType == row.TypeInt:
				o[i] = row.Int(a.sumI)
			case x.agg == "sum":
				o[i] = row.Float(a.sumF)
			case x.argType == row.TypeInt: // avg
				o[i] = row.Float(float64(a.sumI) / float64(a.n))
			default:
				o[i] = row.Float(a.sumF / float64(a.n))
			}
		}
		out[gi] = o
	}
	return out, names, types, nil
}

// refKey is a map key for a tuple of values: kind, NULL-ness and text per
// value, so BIGINT 2 and DOUBLE 2.0 stay distinct and NULLs group together.
func refKey(vals row.Row) string {
	var b strings.Builder
	for _, v := range vals {
		fmt.Fprintf(&b, "%d/%t/%q;", v.Kind, v.Null, v.String())
	}
	return b.String()
}

// floatTolerance bounds how far a SUM or AVG over DOUBLE may drift from
// the reference: the engine adds per partition and then merges the
// partials, so its addition order differs. Relative, and absolute below
// magnitude 1.
const floatTolerance = 1e-9

func floatsClose(a, b float64) bool {
	return math.Abs(a-b) <= floatTolerance*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// diffResults compares an engine result with the reference's: as exact
// sequences under ORDER BY, as sorted multisets otherwise. Every cell must
// have the same kind and value, except that a SUM or AVG cell of DOUBLE
// kind compares within floatTolerance. It returns "" when they agree.
func diffResults(sql string, got, want []row.Row) string {
	sel, err := ParseSelect(sql)
	if err != nil {
		return err.Error()
	}
	approx := make(map[int]bool)
	for i, it := range sel.Items {
		if a := refAggName(it.Expr); a == "sum" || a == "avg" {
			approx[i] = true
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, reference %d:\n engine:    %v\n reference: %v", len(got), len(want), got, want)
	}
	if len(sel.OrderBy) == 0 {
		got, want = sortedForDiff(got, approx), sortedForDiff(want, approx)
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return fmt.Sprintf("row %d: %v, reference %v", i, got[i], want[i])
		}
		for c, g := range got[i] {
			w := want[i][c]
			same := g.Kind == w.Kind && g.Null == w.Null
			if same && !g.Null {
				if approx[c] && g.Kind == row.TypeFloat {
					same = floatsClose(g.AsFloat(), w.AsFloat())
				} else {
					same = g.Equal(w)
				}
			}
			if !same {
				return fmt.Sprintf("row %d column %d: %v (kind %s), reference %v (kind %s)\n engine:    %v\n reference: %v",
					i, c, g, g.Kind, w, w.Kind, got, want)
			}
		}
	}
	return ""
}

// sortedForDiff orders rows by their exact cells, the tolerance-compared
// ones masked so a last-bit difference cannot reorder them.
func sortedForDiff(rows []row.Row, approx map[int]bool) []row.Row {
	keys := make([]string, len(rows))
	for i, r := range rows {
		masked := append(row.Row(nil), r...)
		for c := range masked {
			if approx[c] {
				masked[c] = row.Value{}
			}
		}
		keys[i] = refKey(masked)
	}
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	out := make([]row.Row, len(rows))
	for i, j := range idx {
		out[i] = rows[j]
	}
	return out
}

// The oracle's own expression evaluator: row at a time, one closure per
// node, no kernels and no constant folding. From the engine it takes only
// the scope, the checked BIGINT helpers and, for a function call, the
// registry's ReturnType; every function body is refScalars' row form, and
// the result is coerced to the declared type.

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
		body, ok := refScalars[strings.ToLower(x.Name)]
		if !ok {
			return nil, 0, fmt.Errorf("reference: no row body for %s", x.Name)
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
			out, err := body(vals)
			if err != nil {
				return row.Value{}, fmt.Errorf("sql: %s: %w", udf.Name, err)
			}
			return out.Coerce(ret)
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

// refScalars are the oracle's row-form bodies of the built-in scalar
// functions, written from each function's SQL meaning over row.Values.
var refScalars = map[string]func(args []row.Value) (row.Value, error){
	"upper": refString(strings.ToUpper),
	"lower": refString(strings.ToLower),
	"trim":  refString(strings.TrimSpace),
	"length": refStrict(func(a []row.Value) (row.Value, error) {
		return row.Int(int64(utf8.RuneCountInString(a[0].AsString()))), nil
	}),
	"abs": refStrict(func(a []row.Value) (row.Value, error) {
		if a[0].Kind == row.TypeFloat {
			return row.Float(math.Abs(a[0].AsFloat())), nil
		}
		n := a[0].AsInt()
		if n == math.MinInt64 {
			return row.Value{}, fmt.Errorf("BIGINT overflow")
		}
		if n < 0 {
			n = -n
		}
		return row.Int(n), nil
	}),
	"coalesce": func(a []row.Value) (row.Value, error) {
		for _, v := range a {
			if !v.Null {
				return v, nil
			}
		}
		return a[0], nil
	},
	"round": refFloat(math.Round),
	"floor": refFloat(math.Floor),
	"ceil":  refFloat(math.Ceil),
	"sqrt": refStrict(func(a []row.Value) (row.Value, error) {
		if f := a[0].AsFloat(); f < 0 {
			return row.Value{}, fmt.Errorf("SQRT of negative value %v", f)
		}
		return row.Float(math.Sqrt(a[0].AsFloat())), nil
	}),
	"ln": refStrict(func(a []row.Value) (row.Value, error) {
		if f := a[0].AsFloat(); f <= 0 {
			return row.Value{}, fmt.Errorf("LN of non-positive value %v", f)
		}
		return row.Float(math.Log(a[0].AsFloat())), nil
	}),
	"substr": refStrict(func(a []row.Value) (row.Value, error) {
		chars := []rune(a[0].AsString())
		from, length := a[1].AsInt()-1, a[2].AsInt()
		if a[1].AsInt() < 1 {
			from = 0
		}
		if from >= int64(len(chars)) || length <= 0 {
			return row.String_(""), nil
		}
		chars = chars[from:]
		if length < int64(len(chars)) {
			chars = chars[:length]
		}
		return row.String_(string(chars)), nil
	}),
	"concat": refStrict(func(a []row.Value) (row.Value, error) {
		var b strings.Builder
		for _, v := range a {
			b.WriteString(v.String())
		}
		return row.String_(b.String()), nil
	}),
	"least": refStrict(func(a []row.Value) (row.Value, error) {
		if a[1].Compare(a[0]) < 0 {
			return a[1], nil
		}
		return a[0], nil
	}),
	"greatest": refStrict(func(a []row.Value) (row.Value, error) {
		if a[1].Compare(a[0]) > 0 {
			return a[1], nil
		}
		return a[0], nil
	}),
}

// refStrict makes f NULL-propagating: any NULL argument gives NULL.
func refStrict(f func([]row.Value) (row.Value, error)) func([]row.Value) (row.Value, error) {
	return func(a []row.Value) (row.Value, error) {
		for _, v := range a {
			if v.Null {
				return v, nil
			}
		}
		return f(a)
	}
}

func refString(f func(string) string) func([]row.Value) (row.Value, error) {
	return refStrict(func(a []row.Value) (row.Value, error) { return row.String_(f(a[0].AsString())), nil })
}

func refFloat(f func(float64) float64) func([]row.Value) (row.Value, error) {
	return refStrict(func(a []row.Value) (row.Value, error) { return row.Float(f(a[0].AsFloat())), nil })
}

// TestPropertyMatchesReference runs the whole corpus over random
// NULL-heavy tables at 1-4 workers and requires the engine to answer every
// query as referenceQuery does (or both to reject it), with every result
// row conforming to the result's declared schema.
func TestPropertyMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		workers := 1 + rng.Intn(4)
		nl, nr := rng.Intn(80), rng.Intn(30)
		e := nullableTablesCfg(t, rng, workers, nl, nr, Config{})
		for _, sql := range oracleCorpus() {
			want, werr := referenceQuery(e, sql)
			res, gerr := e.Query(sql)
			if (werr != nil) != (gerr != nil) {
				t.Logf("seed %d workers %d: %s: reference err=%v, engine err=%v", seed, workers, sql, werr, gerr)
				return false
			}
			if werr != nil {
				continue
			}
			got := res.Rows()
			for _, r := range got {
				if err := r.Conforms(res.Schema); err != nil {
					t.Logf("seed %d workers %d: %s: row %v: %v", seed, workers, sql, r, err)
					return false
				}
			}
			if d := diffResults(sql, got, want); d != "" {
				t.Logf("seed %d workers %d: %s: %s", seed, workers, sql, d)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 16}); err != nil {
		t.Error(err)
	}
}

// TestReferenceQuerySmall pins the reference itself on a hand-checked
// table, so a bug in the oracle cannot hide behind an engine bug that
// matches it.
func TestReferenceQuerySmall(t *testing.T) {
	e := newTestEngine(t)
	s := row.MustSchema(row.Column{Name: "g", Type: row.TypeString}, row.Column{Name: "v", Type: row.TypeInt})
	null := row.NullOf(row.TypeInt)
	rows := []row.Row{
		{row.String_("a"), row.Int(1)}, {row.String_("b"), row.Int(5)}, {row.String_("a"), null},
		{row.String_("a"), row.Int(3)}, {row.String_("b"), row.Int(5)},
	}
	if err := e.LoadTable("r", s, rows); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		sql  string
		want string
	}{
		{"SELECT g, COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v), MAX(v) FROM r GROUP BY g ORDER BY g",
			"[('a', 3, 2, 4, 2, 1, 3) ('b', 2, 2, 10, 5, 5, 5)]"},
		{"SELECT COUNT(*), SUM(v) FROM r WHERE v > 100", "[(0, NULL)]"},
		{"SELECT DISTINCT v FROM r ORDER BY v DESC LIMIT 2", "[(5) (3)]"},
		{"SELECT g, v FROM r WHERE v IS NOT NULL ORDER BY g DESC", "[('b', 5) ('b', 5) ('a', 1) ('a', 3)]"},
		{"SELECT x.v, y.v FROM r x, r y WHERE x.v = y.v AND x.g = 'a'", "[(1, 1) (3, 3)]"},
	} {
		got, err := referenceQuery(e, c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if s := fmt.Sprint(got); s != c.want {
			t.Errorf("%s:\n got  %s\n want %s", c.sql, s, c.want)
		}
	}
}
