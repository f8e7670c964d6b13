package sqlengine

import (
	"fmt"
	"strings"

	"sqlml/internal/row"
)

// Expression evaluation: compileVec is the engine's one expression
// compiler. It types each node as it recurses and turns it into a kernel,
// which consumes a whole ColBatch and a position list and returns one
// output vector; the hot loops are typed (no row.Value traffic, no per-row
// closure calls). Kernels evaluate ONLY at the listed positions — a must
// for semantics, not just speed: in `WHERE b <> 0 AND a/b > 2` the
// division must never run on rows the left conjunct filtered out.
//
// Positions are physical row indices into the batch, ascending; nil means
// every physical row. Output vectors span the batch's full physical length
// with meaningful slots only at the evaluated positions. Every expression
// has a kernel: scalar functions (built-in or registered) run their
// vector bodies through funcKernel.

// vecFn evaluates a compiled expression over a batch at the given
// positions. The returned vector belongs to the kernel's vecCtx (or
// aliases an input column) and obeys the batch validity window.
type vecFn func(c *vecCtx, b *row.ColBatch, pos []int32) (*row.Vector, error)

// vecCtx is one operator instance's scratch arena: output vectors and
// position lists handed out stack-style and reclaimed wholesale at the
// start of each Next, so results stay valid for exactly the batch
// validity window. Kernels themselves are stateless — one compiled kernel
// is shared across per-partition goroutines, each with its own vecCtx.
type vecCtx struct {
	vecs  []*row.Vector
	nv    int
	poss  []*[]int32
	np    int
	idPos []int32 // cached identity position list 0,1,2,...
}

// reclaim recycles every vector and position list handed out since the
// previous reclaim. Call at the start of each operator Next.
func (c *vecCtx) reclaim() { c.nv, c.np = 0, 0 }

// get hands out a scratch vector, valid until the next reclaim.
func (c *vecCtx) get() *row.Vector {
	if c.nv == len(c.vecs) {
		c.vecs = append(c.vecs, &row.Vector{})
	}
	v := c.vecs[c.nv]
	c.nv++
	return v
}

// getPos hands out a reusable position-list buffer, valid until the next
// reclaim. Callers append to *p after truncating it.
func (c *vecCtx) getPos() *[]int32 {
	if c.np == len(c.poss) {
		c.poss = append(c.poss, new([]int32))
	}
	p := c.poss[c.np]
	c.np++
	return p
}

// allPos returns the identity position list of length n (read-only).
func (c *vecCtx) allPos(n int) []int32 {
	for len(c.idPos) < n {
		c.idPos = append(c.idPos, int32(len(c.idPos)))
	}
	return c.idPos[:n]
}

// compileVec type-checks e against the scope's combined schema and
// compiles it into a kernel, returning the static result type.
//
// Constant folding: a subtree with no column refs and no function calls
// is evaluated once, here, by its own kernel (evalConst). If that errors
// (e.g. 1/0) the kernel is kept, so the error surfaces only when rows
// flow.
func compileVec(e Expr, s *scope, reg *Registry) (vecFn, row.Type, error) {
	if x, ok := e.(*Lit); ok {
		return constKernel(x.V, x.V.Kind), x.V.Kind, nil
	}
	fn, t, err := compileNode(e, s, reg)
	if err != nil || !exprIsConst(e) {
		return fn, t, err
	}
	if v, err := evalConst(fn); err == nil {
		return constKernel(v, t), t, nil
	}
	return fn, t, nil
}

// nullAs compiles e, already compiled as (fn, t), as a NULL of type peer
// when it is a bare NULL literal; any other e keeps (fn, t).
func nullAs(e Expr, fn vecFn, t, peer row.Type) (vecFn, row.Type) {
	if isNullLit(e) {
		return constKernel(row.NullOf(peer), peer), peer
	}
	return fn, t
}

// compileNode types and compiles one non-literal node over its compiled
// children.
func compileNode(e Expr, s *scope, reg *Registry) (vecFn, row.Type, error) {
	switch x := e.(type) {
	case *ColRef:
		idx, col, err := s.resolve(x.Qualifier, x.Name)
		if err != nil {
			return nil, 0, err
		}
		return func(c *vecCtx, b *row.ColBatch, pos []int32) (*row.Vector, error) {
			return b.Col(idx), nil
		}, col.Type, nil

	case *NotExpr:
		inner, t, err := compileVec(x.E, s, reg)
		if err != nil {
			return nil, 0, err
		}
		if t != row.TypeBool {
			return nil, 0, fmt.Errorf("sql: NOT requires a BOOLEAN operand")
		}
		return notKernel(inner), row.TypeBool, nil

	case *IsNullExpr:
		inner, _, err := compileVec(x.E, s, reg)
		if err != nil {
			return nil, 0, err
		}
		return isNullKernel(inner, x.Negate), row.TypeBool, nil

	case *InListExpr:
		inner, t, err := compileVec(x.E, s, reg)
		if err != nil {
			return nil, 0, err
		}
		elems := make([]vecFn, len(x.List))
		types := make([]row.Type, len(x.List))
		for i, le := range x.List {
			if elems[i], types[i], err = compileVec(le, s, reg); err != nil {
				return nil, 0, err
			}
		}
		return inListKernel(inner, t, elems, types, x.Negate), row.TypeBool, nil

	case *FuncCall:
		if isAggregateName(x.Name) {
			return nil, 0, fmt.Errorf("sql: aggregate %s not allowed here", strings.ToUpper(x.Name))
		}
		udf, ok := reg.Scalar(x.Name)
		if !ok {
			return nil, 0, fmt.Errorf("sql: unknown function %q", x.Name)
		}
		args := make([]vecFn, len(x.Args))
		types := make([]row.Type, len(x.Args))
		for i, a := range x.Args {
			fn, t, err := compileVec(a, s, reg)
			if err != nil {
				return nil, 0, err
			}
			args[i], types[i] = fn, t
		}
		if udf.Name == "coalesce" {
			var typed []row.Type
			for i, a := range x.Args {
				if !isNullLit(a) {
					typed = append(typed, types[i])
				}
			}
			if peer, err := udf.ReturnType(typed); err == nil {
				for i, a := range x.Args {
					args[i], types[i] = nullAs(a, args[i], types[i], peer)
				}
			}
		}
		ret, err := udf.ReturnType(types)
		if err != nil {
			return nil, 0, fmt.Errorf("sql: %s: %w", udf.Name, err)
		}
		return funcKernel(udf, args, ret), ret, nil

	case *BinOp:
		return compileBinOpVec(x, s, reg)

	case *CaseExpr:
		return compileCaseVec(x, s, reg)
	}
	return nil, 0, fmt.Errorf("sql: cannot compile %T", e)
}

// compileBinOpVec types a binary operator: connectives over BOOLEANs,
// comparisons over comparable types, arithmetic over numerics (BIGINT
// unless either side is DOUBLE).
func compileBinOpVec(x *BinOp, s *scope, reg *Registry) (vecFn, row.Type, error) {
	lf, lt, err := compileVec(x.L, s, reg)
	if err != nil {
		return nil, 0, err
	}
	rf, rt, err := compileVec(x.R, s, reg)
	if err != nil {
		return nil, 0, err
	}
	lpeer, rpeer := rt, lt
	if x.Op == "AND" || x.Op == "OR" {
		lpeer, rpeer = row.TypeBool, row.TypeBool
	}
	lf, lt = nullAs(x.L, lf, lt, lpeer)
	rf, rt = nullAs(x.R, rf, rt, rpeer)
	switch x.Op {
	case "AND", "OR":
		if lt != row.TypeBool || rt != row.TypeBool {
			return nil, 0, fmt.Errorf("sql: %s requires BOOLEAN operands", x.Op)
		}
		if x.Op == "AND" {
			return andKernel(lf, rf), row.TypeBool, nil
		}
		return orKernel(lf, rf), row.TypeBool, nil
	case "=", "<>", "<", "<=", ">", ">=":
		if !comparable(lt, rt) {
			return nil, 0, fmt.Errorf("sql: cannot compare %s with %s", lt, rt)
		}
		return compareKernel(lf, rf, lt, rt, x.Op), row.TypeBool, nil
	case "+", "-", "*", "/":
		if !numericType(lt) || !numericType(rt) {
			return nil, 0, fmt.Errorf("sql: %s requires numeric operands", x.Op)
		}
		t := row.TypeInt
		if lt == row.TypeFloat || rt == row.TypeFloat {
			t = row.TypeFloat
		}
		return arithKernel(lf, rf, lt, rt, x.Op[0], t), t, nil
	}
	return nil, 0, fmt.Errorf("sql: unknown operator %q", x.Op)
}

// exprIsConst reports whether e references no columns and calls no
// functions, making it evaluable at compile time.
func exprIsConst(e Expr) bool {
	switch x := e.(type) {
	case *Lit:
		return true
	case *NotExpr:
		return exprIsConst(x.E)
	case *IsNullExpr:
		return exprIsConst(x.E)
	case *InListExpr:
		if !exprIsConst(x.E) {
			return false
		}
		for _, le := range x.List {
			if !exprIsConst(le) {
				return false
			}
		}
		return true
	case *BinOp:
		return exprIsConst(x.L) && exprIsConst(x.R)
	case *CaseExpr:
		for _, w := range x.Whens {
			if !exprIsConst(w.Cond) || !exprIsConst(w.Then) {
				return false
			}
		}
		return x.Else == nil || exprIsConst(x.Else)
	}
	return false
}

// evalConst evaluates a kernel over a one-row, zero-column batch: the
// value of an expression that reads no columns.
func evalConst(fn vecFn) (row.Value, error) {
	var c vecCtx
	b := row.NewColBatch(nil)
	b.SetFullLen(1)
	v, err := fn(&c, b, nil)
	if err != nil {
		return row.Value{}, err
	}
	return v.ValueAt(0), nil
}

// constKernel fills a vector with one compile-time value.
func constKernel(v row.Value, t row.Type) vecFn {
	return func(c *vecCtx, b *row.ColBatch, pos []int32) (*row.Vector, error) {
		out := c.get()
		n := b.FullLen()
		if t == row.TypeString {
			out.Reset(t)
			if v.Null {
				out.PadTo(n)
				return out, nil
			}
			s := v.AsString()
			for i := 0; i < n; i++ {
				out.AppendString(s)
			}
			return out, nil
		}
		out.ResetDense(t, n)
		if v.Null {
			for i := 0; i < n; i++ {
				out.SetNull(i)
			}
			return out, nil
		}
		switch t {
		case row.TypeInt:
			x := v.AsInt()
			for i := range out.Ints {
				out.Ints[i] = x
			}
		case row.TypeFloat:
			x := v.AsFloat()
			for i := range out.Floats {
				out.Floats[i] = x
			}
		case row.TypeBool:
			x := v.AsBool()
			for i := range out.Bools {
				out.Bools[i] = x
			}
		}
		return out, nil
	}
}

// funcKernel evaluates a scalar function's arguments at the listed
// positions and runs its body (ScalarUDF.Fn) over their vectors into an
// output vector reset to the return type t.
func funcKernel(udf *ScalarUDF, args []vecFn, t row.Type) vecFn {
	return func(c *vecCtx, b *row.ColBatch, pos []int32) (*row.Vector, error) {
		n := b.FullLen()
		if pos == nil {
			pos = c.allPos(n)
		}
		vals := make([]*row.Vector, len(args))
		for i, fn := range args {
			v, err := fn(c, b, pos)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		out := c.get()
		if t == row.TypeString {
			out.Reset(t)
		} else {
			out.ResetDense(t, n)
		}
		if err := udf.Fn(vals, pos, out); err != nil {
			return nil, fmt.Errorf("sql: %s: %w", udf.Name, err)
		}
		if t == row.TypeString {
			out.PadTo(n)
		}
		return out, nil
	}
}

// notKernel: NOT propagates NULL, else negates.
func notKernel(inner vecFn) vecFn {
	return func(c *vecCtx, b *row.ColBatch, pos []int32) (*row.Vector, error) {
		iv, err := inner(c, b, pos)
		if err != nil {
			return nil, err
		}
		if pos == nil {
			pos = c.allPos(b.FullLen())
		}
		out := c.get()
		out.ResetDense(row.TypeBool, b.FullLen())
		if iv.HasNulls() {
			for _, pp := range pos {
				p := int(pp)
				if iv.Null(p) {
					out.SetNull(p)
					continue
				}
				out.Bools[p] = !iv.Bools[p]
			}
			return out, nil
		}
		for _, pp := range pos {
			p := int(pp)
			out.Bools[p] = !iv.Bools[p]
		}
		return out, nil
	}
}

// isNullKernel: IS [NOT] NULL reads the bitmap; the result is never NULL.
func isNullKernel(inner vecFn, neg bool) vecFn {
	return func(c *vecCtx, b *row.ColBatch, pos []int32) (*row.Vector, error) {
		iv, err := inner(c, b, pos)
		if err != nil {
			return nil, err
		}
		if pos == nil {
			pos = c.allPos(b.FullLen())
		}
		out := c.get()
		out.ResetDense(row.TypeBool, b.FullLen())
		for _, pp := range pos {
			p := int(pp)
			out.Bools[p] = iv.Null(p) != neg
		}
		return out, nil
	}
}

// andKernel implements the engine's two-valued AND: NULL counts as false
// and the result is never NULL. The right operand is evaluated only where
// the left was true — the vectorized form of short-circuiting, which also
// keeps right-side runtime errors off the rows the left side rejected.
func andKernel(lf, rf vecFn) vecFn {
	return func(c *vecCtx, b *row.ColBatch, pos []int32) (*row.Vector, error) {
		lv, err := lf(c, b, pos)
		if err != nil {
			return nil, err
		}
		if pos == nil {
			pos = c.allPos(b.FullLen())
		}
		out := c.get()
		out.ResetDense(row.TypeBool, b.FullLen())
		pb := c.getPos()
		sel := (*pb)[:0]
		lnull := lv.HasNulls()
		for _, pp := range pos {
			p := int(pp)
			if (!lnull || !lv.Null(p)) && lv.Bools[p] {
				sel = append(sel, pp)
			}
		}
		*pb = sel
		if len(sel) == 0 {
			return out, nil
		}
		rv, err := rf(c, b, sel)
		if err != nil {
			return nil, err
		}
		rnull := rv.HasNulls()
		for _, pp := range sel {
			p := int(pp)
			out.Bools[p] = (!rnull || !rv.Null(p)) && rv.Bools[p]
		}
		return out, nil
	}
}

// orKernel: two-valued OR, right side evaluated only where the left was
// not true.
func orKernel(lf, rf vecFn) vecFn {
	return func(c *vecCtx, b *row.ColBatch, pos []int32) (*row.Vector, error) {
		lv, err := lf(c, b, pos)
		if err != nil {
			return nil, err
		}
		if pos == nil {
			pos = c.allPos(b.FullLen())
		}
		out := c.get()
		out.ResetDense(row.TypeBool, b.FullLen())
		pb := c.getPos()
		rest := (*pb)[:0]
		lnull := lv.HasNulls()
		for _, pp := range pos {
			p := int(pp)
			if (!lnull || !lv.Null(p)) && lv.Bools[p] {
				out.Bools[p] = true
			} else {
				rest = append(rest, pp)
			}
		}
		*pb = rest
		if len(rest) == 0 {
			return out, nil
		}
		rv, err := rf(c, b, rest)
		if err != nil {
			return nil, err
		}
		rnull := rv.HasNulls()
		for _, pp := range rest {
			p := int(pp)
			out.Bools[p] = (!rnull || !rv.Null(p)) && rv.Bools[p]
		}
		return out, nil
	}
}

// cmpHolds[op][c+1] reports whether a three-way comparison result c
// satisfies the comparison operator op.
var cmpHolds = map[string][3]bool{
	"=":  {false, true, false},
	"<>": {true, false, true},
	"<":  {true, false, false},
	"<=": {true, true, false},
	">":  {false, false, true},
	">=": {false, true, true},
}

// compareKernel: comparisons are two-valued here — a NULL operand yields
// non-null FALSE. Every pair is ordered by the sort's comparator, so a
// BIGINT against a DOUBLE compares as two DOUBLEs and DOUBLEs follow
// PostgreSQL's rule (-0 equals 0, NaN equals NaN and is above every number).
func compareKernel(lf, rf vecFn, lt, rt row.Type, op string) vecFn {
	holds := cmpHolds[op]
	widen := lt != rt // comparable() already held, so mixed == numeric pair
	return func(c *vecCtx, b *row.ColBatch, pos []int32) (*row.Vector, error) {
		lv, err := lf(c, b, pos)
		if err != nil {
			return nil, err
		}
		rv, err := rf(c, b, pos)
		if err != nil {
			return nil, err
		}
		if pos == nil {
			pos = c.allPos(b.FullLen())
		}
		if widen {
			lv = toFloatVec(c, lv, b.FullLen(), pos)
			rv = toFloatVec(c, rv, b.FullLen(), pos)
		}
		out := c.get()
		out.ResetDense(row.TypeBool, b.FullLen())
		compareAt(out.Bools, lv, rv, pos, holds)
		return out, nil
	}
}

// compareAt sets dst[p], for each p in pos, to whether the comparator's
// result for the cells of lv and rv at p satisfies holds; a pair with a
// NULL leaves dst[p] as it was. lv and rv are of one type.
func compareAt(dst []bool, lv, rv *row.Vector, pos []int32, holds [3]bool) {
	anyNull := lv.HasNulls() || rv.HasNulls()
	switch lv.Type() {
	case row.TypeInt:
		compareOrderedAt(dst, lv.Ints, rv.Ints, lv, rv, anyNull, pos, holds)
	case row.TypeFloat:
		compareOrderedAt(dst, lv.Floats, rv.Floats, lv, rv, anyNull, pos, holds)
	default:
		for _, pp := range pos {
			p := int(pp)
			if anyNull && (lv.Null(p) || rv.Null(p)) {
				continue
			}
			dst[p] = holds[compareCells(lv, p, rv, p)+1]
		}
	}
}

// compareOrderedAt is compareAt's loop over BIGINT or DOUBLE cells a and
// b, the value slices of lv and rv.
func compareOrderedAt[T int64 | float64](dst []bool, a, b []T, lv, rv *row.Vector, anyNull bool, pos []int32, holds [3]bool) {
	for _, pp := range pos {
		p := int(pp)
		if anyNull && (lv.Null(p) || rv.Null(p)) {
			continue
		}
		dst[p] = holds[cmpOrdered(a[p], b[p])+1]
	}
}

// toFloatVec widens a BIGINT vector to DOUBLE in one pass (nulls carried);
// DOUBLE vectors pass through untouched.
func toFloatVec(c *vecCtx, v *row.Vector, n int, pos []int32) *row.Vector {
	if v.Type() == row.TypeFloat {
		return v
	}
	out := c.get()
	out.ResetDense(row.TypeFloat, n)
	for _, pp := range pos {
		p := int(pp)
		out.Floats[p] = float64(v.Ints[p])
	}
	out.OrNullsFrom(v)
	return out
}

// arithKernel: + - * / with NULL propagation (NULL operand → NULL result,
// checked before division by zero).
func arithKernel(lf, rf vecFn, lt, rt row.Type, op byte, outType row.Type) vecFn {
	return func(c *vecCtx, b *row.ColBatch, pos []int32) (*row.Vector, error) {
		lv, err := lf(c, b, pos)
		if err != nil {
			return nil, err
		}
		rv, err := rf(c, b, pos)
		if err != nil {
			return nil, err
		}
		if pos == nil {
			pos = c.allPos(b.FullLen())
		}
		out := c.get()
		out.ResetDense(outType, b.FullLen())
		if outType == row.TypeFloat {
			lv = toFloatVec(c, lv, b.FullLen(), pos)
			rv = toFloatVec(c, rv, b.FullLen(), pos)
			if op == '/' {
				anyNull := lv.HasNulls() || rv.HasNulls()
				for _, pp := range pos {
					p := int(pp)
					if anyNull && (lv.Null(p) || rv.Null(p)) {
						out.SetNull(p)
						continue
					}
					if rv.Floats[p] == 0 {
						return nil, fmt.Errorf("sql: division by zero")
					}
					out.Floats[p] = lv.Floats[p] / rv.Floats[p]
				}
				return out, nil
			}
			switch op {
			case '+':
				for _, pp := range pos {
					p := int(pp)
					out.Floats[p] = lv.Floats[p] + rv.Floats[p]
				}
			case '-':
				for _, pp := range pos {
					p := int(pp)
					out.Floats[p] = lv.Floats[p] - rv.Floats[p]
				}
			default:
				for _, pp := range pos {
					p := int(pp)
					out.Floats[p] = lv.Floats[p] * rv.Floats[p]
				}
			}
			out.OrNullsFrom(lv)
			out.OrNullsFrom(rv)
			return out, nil
		}
		// BIGINT arithmetic, checked: an exact result outside int64 fails
		// the query. A NULL slot's value is arbitrary, so it never fails.
		anyNull := lv.HasNulls() || rv.HasNulls()
		if op == '/' {
			for _, pp := range pos {
				p := int(pp)
				if anyNull && (lv.Null(p) || rv.Null(p)) {
					out.SetNull(p)
					continue
				}
				if rv.Ints[p] == 0 {
					return nil, fmt.Errorf("sql: division by zero")
				}
				var ok bool
				if out.Ints[p], ok = divInt64(lv.Ints[p], rv.Ints[p]); !ok {
					return nil, errIntOverflow(op)
				}
			}
			return out, nil
		}
		var ok bool
		switch op {
		case '+':
			for _, pp := range pos {
				p := int(pp)
				if out.Ints[p], ok = addInt64(lv.Ints[p], rv.Ints[p]); !ok && !(anyNull && (lv.Null(p) || rv.Null(p))) {
					return nil, errIntOverflow(op)
				}
			}
		case '-':
			for _, pp := range pos {
				p := int(pp)
				if out.Ints[p], ok = subInt64(lv.Ints[p], rv.Ints[p]); !ok && !(anyNull && (lv.Null(p) || rv.Null(p))) {
					return nil, errIntOverflow(op)
				}
			}
		default:
			for _, pp := range pos {
				p := int(pp)
				if out.Ints[p], ok = mulInt64(lv.Ints[p], rv.Ints[p]); !ok && !(anyNull && (lv.Null(p) || rv.Null(p))) {
					return nil, errIntOverflow(op)
				}
			}
		}
		out.OrNullsFrom(lv)
		out.OrNullsFrom(rv)
		return out, nil
	}
}

// inListKernel: list elements are evaluated lazily over the still-unmatched
// positions, a left-to-right short-circuit (an erroring element after a
// match never runs). The needle, of type t, matches element i, of type
// types[i], where the comparator returns 0; an element of a type the needle
// cannot be compared with runs but matches nothing. A NULL needle yields
// FALSE even for NOT IN.
func inListKernel(inner vecFn, t row.Type, elems []vecFn, types []row.Type, neg bool) vecFn {
	eq := cmpHolds["="]
	return func(c *vecCtx, b *row.ColBatch, pos []int32) (*row.Vector, error) {
		v, err := inner(c, b, pos)
		if err != nil {
			return nil, err
		}
		n := b.FullLen()
		if pos == nil {
			pos = c.allPos(n)
		}
		// out.Bools[p] says whether the needle at p matched so far; NOT IN
		// flips it for the non-NULL needles at the end.
		out := c.get()
		out.ResetDense(row.TypeBool, n)
		pb := c.getPos()
		remaining := (*pb)[:0]
		vnull := v.HasNulls()
		for _, pp := range pos {
			if vnull && v.Null(int(pp)) {
				continue // NULL needle → false, already zeroed
			}
			remaining = append(remaining, pp)
		}
		*pb = remaining
		var wide *row.Vector // the needle as DOUBLE, made at the first mixed element
		for i, ef := range elems {
			if len(remaining) == 0 {
				break
			}
			ev, err := ef(c, b, remaining)
			if err != nil {
				return nil, err
			}
			if !comparable(t, types[i]) {
				continue
			}
			nv := v
			if t != types[i] {
				if wide == nil {
					wide = toFloatVec(c, v, n, pos)
				}
				nv, ev = wide, toFloatVec(c, ev, n, remaining)
			}
			compareAt(out.Bools, nv, ev, remaining, eq)
			keep := remaining[:0]
			for _, pp := range remaining {
				if !out.Bools[pp] {
					keep = append(keep, pp)
				}
			}
			remaining = keep
			*pb = remaining
		}
		if neg {
			for _, pp := range pos {
				if !vnull || !v.Null(int(pp)) {
					out.Bools[pp] = !out.Bools[pp]
				}
			}
		}
		return out, nil
	}
}

func cellFloat(v *row.Vector, pp int) float64 {
	if v.Type() == row.TypeInt {
		return float64(v.Ints[pp])
	}
	return v.Floats[pp]
}

// compileCaseVec types a searched CASE — every condition BOOLEAN, every
// result arm but a bare NULL of one common type (numerics unify to DOUBLE;
// all-NULL arms are VARCHAR) — and vectorizes it by progressive position
// refinement: each arm's condition runs over the rows no prior arm
// claimed, and its result expression runs only over the rows it matched.
// BIGINT, DOUBLE and BOOLEAN results scatter into one dense output as each
// arm finishes; VARCHAR results, which build sequentially, are gathered in
// position order from the arm that claimed each row once every arm has run.
func compileCaseVec(x *CaseExpr, s *scope, reg *Registry) (vecFn, row.Type, error) {
	outType, seen := row.TypeString, false
	unify := func(e Expr, t row.Type) error {
		switch {
		case isNullLit(e):
		case !seen:
			outType, seen = t, true
		case outType == t:
		case numericType(outType) && numericType(t):
			outType = row.TypeFloat
		default:
			return fmt.Errorf("sql: CASE arms mix %s and %s", outType, t)
		}
		return nil
	}
	conds := make([]vecFn, len(x.Whens))
	thens := make([]vecFn, len(x.Whens))
	for i, w := range x.Whens {
		cond, ct, err := compileVec(w.Cond, s, reg)
		if err != nil {
			return nil, 0, err
		}
		if ct != row.TypeBool {
			return nil, 0, fmt.Errorf("sql: CASE WHEN condition must be BOOLEAN, got %s", ct)
		}
		then, tt, err := compileVec(w.Then, s, reg)
		if err != nil {
			return nil, 0, err
		}
		if err := unify(w.Then, tt); err != nil {
			return nil, 0, err
		}
		conds[i], thens[i] = cond, then
	}
	var elseFn vecFn
	if x.Else != nil {
		fn, t, err := compileVec(x.Else, s, reg)
		if err != nil {
			return nil, 0, err
		}
		if err := unify(x.Else, t); err != nil {
			return nil, 0, err
		}
		elseFn = fn
	}
	return caseKernel(conds, thens, elseFn, outType), outType, nil
}

func caseKernel(conds, thens []vecFn, elseFn vecFn, outType row.Type) vecFn {
	gather := outType == row.TypeString
	return func(c *vecCtx, b *row.ColBatch, pos []int32) (*row.Vector, error) {
		n := b.FullLen()
		if pos == nil {
			pos = c.allPos(n)
		}
		out := c.get()
		// When gathering, srcs[k] is arm k's result (the ELSE's at
		// len(thens); nil yields NULL) and armOf[p] the arm that claimed p.
		var srcs []*row.Vector
		var armOf []int32
		if gather {
			srcs = make([]*row.Vector, len(thens)+1)
			ab := c.getPos()
			if cap(*ab) < n {
				*ab = make([]int32, n)
			}
			armOf = (*ab)[:n]
		} else {
			out.ResetDense(outType, n)
		}
		claim := func(k int, v *row.Vector, at []int32) {
			if gather {
				srcs[k] = v
				for _, pp := range at {
					armOf[pp] = int32(k)
				}
				return
			}
			for _, pp := range at {
				putCell(out, v, int(pp))
			}
		}
		pb := c.getPos()
		remaining := append((*pb)[:0], pos...)
		*pb = remaining
		mb := c.getPos()
		for k, cond := range conds {
			if len(remaining) == 0 {
				break
			}
			cv, err := cond(c, b, remaining)
			if err != nil {
				return nil, err
			}
			matched := (*mb)[:0]
			keep := remaining[:0]
			cnull := cv.HasNulls()
			for _, pp := range remaining {
				p := int(pp)
				if (!cnull || !cv.Null(p)) && cv.Bools[p] {
					matched = append(matched, pp)
				} else {
					keep = append(keep, pp)
				}
			}
			*mb = matched
			remaining = keep
			*pb = remaining
			if len(matched) == 0 {
				continue
			}
			tv, err := thens[k](c, b, matched)
			if err != nil {
				return nil, err
			}
			claim(k, tv, matched)
		}
		if len(remaining) > 0 {
			var ev *row.Vector // stays nil without an ELSE: NULL
			if elseFn != nil {
				var err error
				if ev, err = elseFn(c, b, remaining); err != nil {
					return nil, err
				}
			}
			claim(len(thens), ev, remaining)
		}
		if gather {
			out.Reset(outType)
			for _, pp := range pos {
				putCell(out, srcs[armOf[pp]], int(pp))
			}
			out.PadTo(n)
		}
		return out, nil
	}
}

// putCell writes src's cell p into out at p, widening BIGINT to DOUBLE
// when out is DOUBLE; a nil src writes NULL. A VARCHAR out builds
// sequentially, so it is padded to p and the cell appended: call it in
// position order.
func putCell(out, src *row.Vector, p int) {
	switch {
	case out.Type() == row.TypeString:
		out.PadTo(p)
		if src == nil {
			out.AppendNull()
		} else {
			out.AppendFrom(src, p)
		}
	case src == nil || src.Null(p):
		out.SetNull(p)
	case out.Type() == row.TypeFloat:
		out.Floats[p] = cellFloat(src, p)
	case out.Type() == row.TypeInt:
		out.Ints[p] = src.Ints[p]
	default:
		out.Bools[p] = src.Bools[p]
	}
}
