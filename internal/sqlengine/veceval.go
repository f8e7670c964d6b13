package sqlengine

import (
	"bytes"
	"fmt"

	"sqlml/internal/row"
)

// Vectorized expression evaluation: compileVec builds a column→column twin
// of eval.go's compile. A kernel consumes a whole ColBatch and a position
// list and returns one output vector; the hot loops are typed (no
// row.Value traffic, no per-row closure calls). Kernels evaluate ONLY at
// the listed positions — a must for semantics, not just speed: in
// `WHERE b <> 0 AND a/b > 2` the division must never run on rows the left
// conjunct filtered out, exactly as the row-at-a-time path short-circuits.
//
// Positions are physical row indices into the batch, ascending; nil means
// every physical row. Output vectors span the batch's full physical length
// with meaningful slots only at the evaluated positions. Expressions
// without a native kernel — scalar UDF calls, string-typed CASE — fall
// back to the row evaluator over a scratch row, so every expression the
// row path accepts still runs.

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
	vecs    []*row.Vector
	nv      int
	poss    []*[]int32
	np      int
	idPos   []int32 // cached identity position list 0,1,2,...
	scratch row.Row // fallback-eval row materialization buffer
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

// compileVec compiles e into a vector kernel against the scope's combined
// schema. Typing and error behavior mirror compile exactly; the row
// evaluator is compiled alongside both to type-check and to serve as the
// fallback body.
func compileVec(e Expr, s *scope, reg *Registry) (vecFn, row.Type, error) {
	rowFn, t, err := compile(e, s, reg)
	if err != nil {
		return nil, 0, err
	}
	// Constant folding: a subtree with no column refs and no UDF calls
	// evaluates once at compile time. If it errors (e.g. 1/0) keep the
	// row-path timing — the error must surface only when rows flow.
	if exprIsConst(e) {
		if v, evalErr := rowFn(nil); evalErr == nil {
			return constKernel(v, t), t, nil
		}
		return fallbackKernel(rowFn, t), t, nil
	}

	switch x := e.(type) {
	case *ColRef:
		idx, _, err := s.resolve(x.Qualifier, x.Name)
		if err != nil {
			return nil, 0, err
		}
		return func(c *vecCtx, b *row.ColBatch, pos []int32) (*row.Vector, error) {
			return b.Col(idx), nil
		}, t, nil

	case *NotExpr:
		inner, _, err := compileVec(x.E, s, reg)
		if err != nil {
			return nil, 0, err
		}
		return notKernel(inner), t, nil

	case *IsNullExpr:
		inner, _, err := compileVec(x.E, s, reg)
		if err != nil {
			return nil, 0, err
		}
		return isNullKernel(inner, x.Negate), t, nil

	case *InListExpr:
		inner, _, err := compileVec(x.E, s, reg)
		if err != nil {
			return nil, 0, err
		}
		elems := make([]vecFn, len(x.List))
		for i, le := range x.List {
			fn, _, err := compileVec(le, s, reg)
			if err != nil {
				return nil, 0, err
			}
			elems[i] = fn
		}
		return inListKernel(inner, elems, x.Negate), t, nil

	case *BinOp:
		lf, lt, err := compileVec(x.L, s, reg)
		if err != nil {
			return nil, 0, err
		}
		rf, rt, err := compileVec(x.R, s, reg)
		if err != nil {
			return nil, 0, err
		}
		switch x.Op {
		case "AND":
			return andKernel(lf, rf), t, nil
		case "OR":
			return orKernel(lf, rf), t, nil
		case "=", "<>", "<", "<=", ">", ">=":
			return compareKernel(lf, rf, lt, rt, x.Op), t, nil
		default: // + - * /
			return arithKernel(lf, rf, lt, rt, x.Op[0], t), t, nil
		}

	case *CaseExpr:
		if t == row.TypeString {
			// Scatter can't write a sequential string vector out of order;
			// string-typed CASE stays on the row evaluator.
			return fallbackKernel(rowFn, t), t, nil
		}
		return compileCaseVec(x, s, reg, t)

	case *FuncCall:
		// Scalar UDFs take row.Values by contract; the per-row fallback is
		// the designed boundary, not a missing kernel.
		return fallbackKernel(rowFn, t), t, nil
	}
	return fallbackKernel(rowFn, t), t, nil
}

// exprIsConst reports whether e references no columns and calls no UDFs,
// making it evaluable at compile time.
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

// fallbackKernel runs the row evaluator position-by-position over a
// scratch row — the boundary for UDF calls and unvectorized shapes.
func fallbackKernel(rowFn evalFn, t row.Type) vecFn {
	return func(c *vecCtx, b *row.ColBatch, pos []int32) (*row.Vector, error) {
		if pos == nil {
			pos = c.allPos(b.FullLen())
		}
		out := c.get()
		n := b.FullLen()
		if t == row.TypeString {
			out.Reset(t)
			for _, pp := range pos {
				p := int(pp)
				out.PadTo(p)
				c.scratch = b.PhysicalRow(p, c.scratch)
				v, err := rowFn(c.scratch)
				if err != nil {
					return nil, err
				}
				if err := appendFallbackString(out, v); err != nil {
					return nil, err
				}
			}
			out.PadTo(n)
			return out, nil
		}
		out.ResetDense(t, n)
		for _, pp := range pos {
			p := int(pp)
			c.scratch = b.PhysicalRow(p, c.scratch)
			v, err := rowFn(c.scratch)
			if err != nil {
				return nil, err
			}
			if v.Null {
				out.SetNull(p)
				continue
			}
			switch t {
			case row.TypeInt:
				if v.Kind != row.TypeInt {
					cv, err := v.Coerce(t)
					if err != nil {
						return nil, err
					}
					v = cv
				}
				out.Ints[p] = v.AsInt()
			case row.TypeFloat:
				if !v.Numeric() {
					cv, err := v.Coerce(t)
					if err != nil {
						return nil, err
					}
					v = cv
				}
				out.Floats[p] = v.AsFloat()
			case row.TypeBool:
				if v.Kind != row.TypeBool {
					cv, err := v.Coerce(t)
					if err != nil {
						return nil, err
					}
					v = cv
				}
				out.Bools[p] = v.AsBool()
			}
		}
		return out, nil
	}
}

func appendFallbackString(out *row.Vector, v row.Value) error {
	if v.Null {
		out.AppendNull()
		return nil
	}
	if v.Kind != row.TypeString {
		cv, err := v.Coerce(row.TypeString)
		if err != nil {
			return err
		}
		v = cv
	}
	out.AppendString(v.AsString())
	return nil
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
// keeps right-side runtime errors confined to rows the row path would
// have reached.
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

// Comparison opcodes, resolved from the operator string at compile time.
const (
	cmpEq = iota
	cmpNe
	cmpLt
	cmpLe
	cmpGt
	cmpGe
)

func cmpCode(op string) int {
	switch op {
	case "=":
		return cmpEq
	case "<>":
		return cmpNe
	case "<":
		return cmpLt
	case "<=":
		return cmpLe
	case ">":
		return cmpGt
	default:
		return cmpGe
	}
}

// compareKernel: comparisons are two-valued here — a NULL operand yields
// non-null FALSE, matching the row evaluator. DOUBLEs compare as
// Value.Compare orders them (PostgreSQL's rule): -0 equals 0, NaN equals
// NaN, and NaN is above every number.
func compareKernel(lf, rf vecFn, lt, rt row.Type, op string) vecFn {
	code := cmpCode(op)
	mixedNumeric := lt != rt // comparable() already held, so mixed == numeric pair
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
		if mixedNumeric || lt == row.TypeFloat {
			lv = toFloatVec(c, lv, b.FullLen(), pos)
			rv = toFloatVec(c, rv, b.FullLen(), pos)
		}
		out := c.get()
		out.ResetDense(row.TypeBool, b.FullLen())
		anyNull := lv.HasNulls() || rv.HasNulls()
		switch {
		case mixedNumeric || lt == row.TypeFloat:
			for _, pp := range pos {
				p := int(pp)
				if anyNull && (lv.Null(p) || rv.Null(p)) {
					continue // stays false
				}
				a, bb := lv.Floats[p], rv.Floats[p]
				var r bool
				switch code {
				case cmpEq:
					r = floatEq(a, bb)
				case cmpNe:
					r = !floatEq(a, bb)
				case cmpLt:
					r = a < bb || (bb != bb && a == a)
				case cmpLe:
					r = a <= bb || bb != bb
				case cmpGt:
					r = a > bb || (a != a && bb == bb)
				default:
					r = a >= bb || a != a
				}
				out.Bools[p] = r
			}
		case lt == row.TypeInt:
			for _, pp := range pos {
				p := int(pp)
				if anyNull && (lv.Null(p) || rv.Null(p)) {
					continue
				}
				a, bb := lv.Ints[p], rv.Ints[p]
				var r bool
				switch code {
				case cmpEq:
					r = a == bb
				case cmpNe:
					r = a != bb
				case cmpLt:
					r = a < bb
				case cmpLe:
					r = a <= bb
				case cmpGt:
					r = a > bb
				default:
					r = a >= bb
				}
				out.Bools[p] = r
			}
		case lt == row.TypeString:
			for _, pp := range pos {
				p := int(pp)
				if anyNull && (lv.Null(p) || rv.Null(p)) {
					continue
				}
				var r bool
				switch code {
				case cmpEq:
					r = bytes.Equal(lv.Bytes(p), rv.Bytes(p))
				case cmpNe:
					r = !bytes.Equal(lv.Bytes(p), rv.Bytes(p))
				default:
					cc := bytes.Compare(lv.Bytes(p), rv.Bytes(p))
					switch code {
					case cmpLt:
						r = cc < 0
					case cmpLe:
						r = cc <= 0
					case cmpGt:
						r = cc > 0
					default:
						r = cc >= 0
					}
				}
				out.Bools[p] = r
			}
		default: // BOOLEAN: false < true, as Value.Compare orders
			for _, pp := range pos {
				p := int(pp)
				if anyNull && (lv.Null(p) || rv.Null(p)) {
					continue
				}
				a, bb := b2i(lv.Bools[p]), b2i(rv.Bools[p])
				var r bool
				switch code {
				case cmpEq:
					r = a == bb
				case cmpNe:
					r = a != bb
				case cmpLt:
					r = a < bb
				case cmpLe:
					r = a <= bb
				case cmpGt:
					r = a > bb
				default:
					r = a >= bb
				}
				out.Bools[p] = r
			}
		}
		return out, nil
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
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
// checked before division by zero, as the row path does).
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
// positions, preserving the row path's left-to-right short-circuit (an
// erroring element after a match never runs). A NULL needle yields FALSE
// even for NOT IN, matching the row evaluator.
func inListKernel(inner vecFn, elems []vecFn, neg bool) vecFn {
	return func(c *vecCtx, b *row.ColBatch, pos []int32) (*row.Vector, error) {
		v, err := inner(c, b, pos)
		if err != nil {
			return nil, err
		}
		if pos == nil {
			pos = c.allPos(b.FullLen())
		}
		out := c.get()
		out.ResetDense(row.TypeBool, b.FullLen())
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
		for _, ef := range elems {
			if len(remaining) == 0 {
				break
			}
			ev, err := ef(c, b, remaining)
			if err != nil {
				return nil, err
			}
			keep := remaining[:0]
			enull := ev.HasNulls()
			for _, pp := range remaining {
				p := int(pp)
				if (!enull || !ev.Null(p)) && vecCellsEqual(v, ev, p) {
					out.Bools[p] = !neg
				} else {
					keep = append(keep, pp)
				}
			}
			remaining = keep
			*pb = remaining
		}
		for _, pp := range remaining {
			out.Bools[int(pp)] = neg
		}
		return out, nil
	}
}

// vecCellsEqual mirrors Value.Equal for two non-null cells at the same
// position: same-kind deep equality, plus numeric cross-type equality.
func vecCellsEqual(a, b *row.Vector, pp int) bool {
	at, bt := a.Type(), b.Type()
	if at != bt {
		if (at == row.TypeInt || at == row.TypeFloat) && (bt == row.TypeInt || bt == row.TypeFloat) {
			return cellFloat(a, pp) == cellFloat(b, pp)
		}
		return false
	}
	switch at {
	case row.TypeInt:
		return a.Ints[pp] == b.Ints[pp]
	case row.TypeFloat:
		return floatEq(a.Floats[pp], b.Floats[pp])
	case row.TypeBool:
		return a.Bools[pp] == b.Bools[pp]
	default:
		return bytes.Equal(a.Bytes(pp), b.Bytes(pp))
	}
}

// floatEq is DOUBLE equality under PostgreSQL's rule: IEEE equality (so
// -0 equals 0), and NaN equals NaN.
func floatEq(a, b float64) bool { return a == b || (a != a && b != b) }

func cellFloat(v *row.Vector, pp int) float64 {
	if v.Type() == row.TypeInt {
		return float64(v.Ints[pp])
	}
	return v.Floats[pp]
}

// compileCaseVec vectorizes a searched CASE by progressive position
// refinement: each arm's condition runs over the rows no prior arm
// claimed, its result expression runs only over the rows it matched, and
// the (numeric-unified) results scatter into one dense output.
func compileCaseVec(x *CaseExpr, s *scope, reg *Registry, outType row.Type) (vecFn, row.Type, error) {
	type vecArm struct {
		cond vecFn
		then vecFn
		t    row.Type
	}
	arms := make([]vecArm, len(x.Whens))
	for i, w := range x.Whens {
		cond, _, err := compileVec(w.Cond, s, reg)
		if err != nil {
			return nil, 0, err
		}
		then, tt, err := compileVec(w.Then, s, reg)
		if err != nil {
			return nil, 0, err
		}
		arms[i] = vecArm{cond: cond, then: then, t: tt}
	}
	var elseFn vecFn
	var elseT row.Type
	if x.Else != nil {
		fn, t, err := compileVec(x.Else, s, reg)
		if err != nil {
			return nil, 0, err
		}
		elseFn, elseT = fn, t
	}
	return func(c *vecCtx, b *row.ColBatch, pos []int32) (*row.Vector, error) {
		if pos == nil {
			pos = c.allPos(b.FullLen())
		}
		out := c.get()
		out.ResetDense(outType, b.FullLen())
		pb := c.getPos()
		remaining := append((*pb)[:0], pos...)
		*pb = remaining
		mb := c.getPos()
		for _, a := range arms {
			if len(remaining) == 0 {
				break
			}
			cv, err := a.cond(c, b, remaining)
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
			tv, err := a.then(c, b, matched)
			if err != nil {
				return nil, err
			}
			scatterCoerced(out, tv, a.t, outType, matched)
		}
		if len(remaining) > 0 {
			if elseFn == nil {
				for _, pp := range remaining {
					out.SetNull(int(pp))
				}
			} else {
				ev, err := elseFn(c, b, remaining)
				if err != nil {
					return nil, err
				}
				scatterCoerced(out, ev, elseT, outType, remaining)
			}
		}
		return out, nil
	}, outType, nil
}

// scatterCoerced writes src's cells into the dense dst at the given
// positions, widening BIGINT→DOUBLE when the CASE unified numerics.
func scatterCoerced(dst, src *row.Vector, srcT, dstT row.Type, pos []int32) {
	snull := src.HasNulls()
	for _, pp := range pos {
		p := int(pp)
		if snull && src.Null(p) {
			dst.SetNull(p)
			continue
		}
		switch dstT {
		case row.TypeInt:
			dst.Ints[p] = src.Ints[p]
		case row.TypeFloat:
			if srcT == row.TypeInt {
				dst.Floats[p] = float64(src.Ints[p])
			} else {
				dst.Floats[p] = src.Floats[p]
			}
		case row.TypeBool:
			dst.Bools[p] = src.Bools[p]
		}
	}
}
