// Package batchretain enforces the pipeline's batch-reuse contract, the
// one stated on ColBatchSource (internal/sqlengine/colpipe.go): a
// *ColBatch returned by NextCol (or a record reader's NextColBatch) — and
// every vector, slice or selection aliasing it — is only valid until the
// following call. Producers recycle the batch's backing storage, so a
// consumer that parks such a value somewhere longer-lived reads rows that
// a later batch has overwritten: silently corrupt results, only under
// load, only when the producer actually recycles. The row view a result
// hands out (a RowBatch from BatchIterator.Next, internal/sqlengine/batch.go)
// follows the same rule and is checked the same way.
//
// What the pass flags, for a batch-derived value b:
//
//   - b stored into a struct field, package-level variable, or map/slice
//     element (`x.f = b`, `m[k] = b`) — the store outlives the loop that
//     calls Next
//   - b appended by reference (`acc = append(acc, b)`, or inside a
//     composite literal) — the accumulated slice aliases recycled storage
//   - b assigned to a variable declared outside the loop whose body calls
//     Next — the classic "remember the previous batch" bug
//   - b sent on a channel or captured by a `go` closure — the consumer
//     runs concurrently with the producer's next Next
//
// Copying is the fix and is recognized: `append(acc, b...)` spreads the
// rows out of the batch (the drainBatches idiom), and any call applied to
// b (Clone, copyRows, …) transfers ownership to code that is responsible
// for its own copying.
//
// Births from Next-shaped methods returning *ColBatch or RowBatch are
// tracked alike, and the view accessors — Col, Sel, Bytes — keep the
// alias alive instead of transferring ownership the way Rows (which
// copies) does.
package batchretain

import (
	"go/ast"
	"go/token"
	"go/types"

	"sqlml/internal/analyzers/framework"
)

// Analyzer is the batchretain pass.
var Analyzer = &framework.Analyzer{
	Name: "batchretain",
	Doc:  "flags RowBatches and ColBatches (or views sliced from them) retained past the next Next call",
	Run:  run,
}

func run(pass *framework.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if fd, ok := n.(*ast.FuncDecl); ok && fd.Body != nil {
				checkFunc(pass, fd.Body)
			}
			if fl, ok := n.(*ast.FuncLit); ok {
				checkFunc(pass, fl.Body)
			}
			return true
		})
	}
	return nil
}

// checker tracks batch-derived values through one function body.
type checker struct {
	pass *framework.Pass
	// batches holds variables aliasing a batch (the RowBatch itself or a
	// row/sub-slice of one), with the position of the Next call they came
	// from.
	batches map[*types.Var]token.Pos
	// loops is the stack of enclosing loop statements.
	loops []ast.Node
}

func checkFunc(pass *framework.Pass, body *ast.BlockStmt) {
	c := &checker{pass: pass, batches: make(map[*types.Var]token.Pos)}
	c.walk(body)
}

// walk performs a source-order traversal, maintaining the loop stack and
// the set of batch-aliasing variables.
func (c *checker) walk(n ast.Node) {
	if n == nil {
		return
	}
	switch s := n.(type) {
	case *ast.ForStmt:
		c.loops = append(c.loops, s)
		c.walk(s.Init)
		c.walk(s.Body)
		c.walk(s.Post)
		c.loops = c.loops[:len(c.loops)-1]
		return
	case *ast.RangeStmt:
		// range over a tracked batch defines derived row variables.
		c.trackRangeVars(s)
		c.loops = append(c.loops, s)
		c.walk(s.Body)
		c.loops = c.loops[:len(c.loops)-1]
		return
	case *ast.AssignStmt:
		c.handleAssign(s)
		return
	case *ast.SendStmt:
		if v, from := c.aliasOf(s.Value); v != nil {
			c.report(s.Pos(), "batch from Next (line %d) sent on a channel; the receiver outlives the next Next call — copy the rows first", c.line(from))
		}
		return
	case *ast.GoStmt:
		c.checkGoCapture(s)
		return
	case *ast.FuncLit:
		return // separate context; checked by run
	case *ast.BlockStmt:
		for _, st := range s.List {
			c.walk(st)
		}
		return
	case *ast.IfStmt:
		c.walk(s.Init)
		c.walk(s.Body)
		c.walk(s.Else)
		return
	case *ast.SwitchStmt:
		c.walk(s.Init)
		c.walk(s.Body)
		return
	case *ast.TypeSwitchStmt:
		c.walk(s.Init)
		c.walk(s.Assign)
		c.walk(s.Body)
		return
	case *ast.SelectStmt:
		c.walk(s.Body)
		return
	case *ast.CaseClause:
		for _, st := range s.Body {
			c.walk(st)
		}
		return
	case *ast.CommClause:
		c.walk(s.Comm)
		for _, st := range s.Body {
			c.walk(st)
		}
		return
	case *ast.LabeledStmt:
		c.walk(s.Stmt)
		return
	case *ast.ExprStmt:
		return
	case *ast.DeferStmt:
		return
	case *ast.ReturnStmt:
		// Returning a batch hands it to the caller before any further
		// Next: that is the iterator protocol itself, not a retention.
		return
	case *ast.DeclStmt:
		// var b, ok, err = it.Next() tracks the batch like := does.
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) == 1 && len(vs.Names) >= 1 {
					if call, ok := unparen(vs.Values[0]).(*ast.CallExpr); ok && isBatchNext(c.pass.TypesInfo, call) {
						if v, ok := objOf(c.pass.TypesInfo, vs.Names[0]).(*types.Var); ok {
							c.batches[v] = call.Pos()
						}
					}
				}
			}
		}
		return
	}
	// Other statements: nothing to do.
}

// handleAssign is where batches are born (b, ok, err := it.Next()) and
// where retentions happen.
func (c *checker) handleAssign(s *ast.AssignStmt) {
	// Birth: b, ok, err := it.Next()
	if len(s.Rhs) == 1 {
		if call, ok := unparen(s.Rhs[0]).(*ast.CallExpr); ok && isBatchNext(c.pass.TypesInfo, call) && len(s.Lhs) >= 1 {
			if id, ok := s.Lhs[0].(*ast.Ident); ok {
				if v, ok := objOf(c.pass.TypesInfo, id).(*types.Var); ok {
					c.batches[v] = call.Pos()
				}
			}
			return
		}
	}

	for i, lhs := range s.Lhs {
		var rhs ast.Expr
		if len(s.Rhs) == len(s.Lhs) {
			rhs = s.Rhs[i]
		} else if len(s.Rhs) == 1 {
			rhs = s.Rhs[0]
		}
		if rhs == nil {
			continue
		}
		v, from := c.aliasOf(rhs)
		if v == nil {
			// append(acc, b) by reference. Operators legitimately append
			// batch rows into a scratch slice reset every iteration (a row
			// operator's reused output buffer); the bug is accumulating
			// into a slice that survives the Next-calling loop.
			if _, from2, byRef := c.appendsBatchByRef(rhs); byRef {
				if c.accumulatesAcrossNext(lhs) {
					c.reportStore(s.Pos(), lhs, nil, from2, true)
				}
			}
			// A plain assignment breaks any old alias the LHS held.
			c.untrack(lhs)
			continue
		}
		// RHS aliases a batch: where is it going?
		switch l := unparen(lhs).(type) {
		case *ast.Ident:
			lv, _ := objOf(c.pass.TypesInfo, l).(*types.Var)
			if lv == nil {
				continue
			}
			if loop := c.loopDeclaredOutside(lv); loop != nil && c.loopCallsNext(loop) {
				c.report(s.Pos(), "batch from Next (line %d) assigned to %s, which outlives this Next-calling loop; it is only valid until the following Next — copy the rows first", c.line(from), l.Name)
				continue
			}
			// Local alias inside the same iteration: track it too.
			c.batches[lv] = from
		default:
			// Field, map/slice element, or dereference target.
			c.reportStore(s.Pos(), lhs, v, from, false)
		}
	}
}

// reportStore flags a retention store of a batch-derived value.
func (c *checker) reportStore(pos token.Pos, lhs ast.Expr, v *types.Var, from token.Pos, byAppend bool) {
	where := "a longer-lived location"
	switch unparen(lhs).(type) {
	case *ast.SelectorExpr:
		where = "a struct field"
	case *ast.IndexExpr:
		where = "a map or slice element"
	case *ast.StarExpr:
		where = "a pointed-to location"
	case *ast.Ident:
		if byAppend {
			where = "an accumulating slice"
		}
	}
	verb := "stored in"
	if byAppend {
		verb = "appended by reference to"
	}
	c.report(pos, "batch from Next (line %d) %s %s; it is only valid until the following Next call — copy the rows first (append(dst, b...) or Clone)", c.line(from), verb, where)
}

// appendsBatchByRef recognizes append(acc, b) where b aliases a batch and
// is not spread (append(acc, b...) copies the row headers and is the
// blessed drain idiom).
func (c *checker) appendsBatchByRef(e ast.Expr) (*types.Var, token.Pos, bool) {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok || !isBuiltinCall(c.pass.TypesInfo, call, "append") {
		return nil, token.NoPos, false
	}
	if call.Ellipsis != token.NoPos {
		return nil, token.NoPos, false // append(acc, b...) copies
	}
	for _, a := range call.Args[1:] {
		if v, from := c.aliasOf(a); v != nil {
			return v, from, true
		}
		// Composite literal retaining the batch: item{batch: b}.
		if lit, ok := unparen(a).(*ast.CompositeLit); ok {
			for _, el := range lit.Elts {
				val := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					val = kv.Value
				}
				if v, from := c.aliasOf(val); v != nil {
					return v, from, true
				}
			}
		}
	}
	return nil, token.NoPos, false
}

// checkGoCapture flags go-closures capturing a tracked batch variable.
func (c *checker) checkGoCapture(g *ast.GoStmt) {
	fl, ok := unparen(g.Call.Fun).(*ast.FuncLit)
	if !ok {
		return
	}
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := objOf(c.pass.TypesInfo, id).(*types.Var); ok {
				if from, tracked := c.batches[v]; tracked {
					c.report(id.Pos(), "batch from Next (line %d) captured by a goroutine; it runs concurrently with the producer's next Next — copy the rows first", c.line(from))
					return false
				}
			}
		}
		return true
	})
}

// accumulatesAcrossNext reports whether lhs names a variable declared
// outside the innermost enclosing loop that calls BatchIterator.Next —
// i.e. the append target accumulates aliases across batch recycles.
func (c *checker) accumulatesAcrossNext(lhs ast.Expr) bool {
	id, ok := unparen(lhs).(*ast.Ident)
	if !ok {
		return true // field or element target always outlives the loop
	}
	lv, ok := objOf(c.pass.TypesInfo, id).(*types.Var)
	if !ok {
		return false
	}
	loop := c.loopDeclaredOutside(lv)
	return loop != nil && c.loopCallsNext(loop)
}

// trackRangeVars records row variables from `for _, r := range b`.
func (c *checker) trackRangeVars(s *ast.RangeStmt) {
	v, from := c.aliasOf(s.X)
	if v == nil {
		return
	}
	if id, ok := s.Value.(*ast.Ident); ok && id.Name != "_" {
		if rv, ok := objOf(c.pass.TypesInfo, id).(*types.Var); ok {
			c.batches[rv] = from
		}
	}
}

// aliasOf reports whether e is a tracked batch variable, or a sub-slice
// (b[i:j]) or element (b[i]) of one, returning the variable and the Next
// position it derives from.
func (c *checker) aliasOf(e ast.Expr) (*types.Var, token.Pos) {
	for {
		switch x := unparen(e).(type) {
		case *ast.Ident:
			if v, ok := objOf(c.pass.TypesInfo, x).(*types.Var); ok {
				if from, tracked := c.batches[v]; tracked {
					return v, from
				}
			}
			return nil, token.NoPos
		case *ast.SliceExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.CallExpr:
			// Columnar view accessors hand out slices of the batch's own
			// storage: b.Col(i) is a vector header over it, b.Sel() the
			// selection vector, Bytes the raw payload slab.
			// Any other call (Rows, ValueAt, Clone, …) copies and breaks
			// the alias chain.
			sel, ok := unparen(x.Fun).(*ast.SelectorExpr)
			if !ok || !isViewAccessor(sel.Sel.Name) {
				return nil, token.NoPos
			}
			e = sel.X
		default:
			return nil, token.NoPos
		}
	}
}

// isViewAccessor reports whether a method name returns a view aliasing a
// columnar batch's recycled storage rather than an owning copy.
func isViewAccessor(name string) bool {
	switch name {
	case "Col", "Sel", "Bytes":
		return true
	}
	return false
}

// untrack removes a variable from the batch set when it is overwritten.
func (c *checker) untrack(lhs ast.Expr) {
	if id, ok := unparen(lhs).(*ast.Ident); ok {
		if v, ok := objOf(c.pass.TypesInfo, id).(*types.Var); ok {
			delete(c.batches, v)
		}
	}
}

// loopDeclaredOutside returns the innermost enclosing loop that v is
// declared outside of, or nil.
func (c *checker) loopDeclaredOutside(v *types.Var) ast.Node {
	for i := len(c.loops) - 1; i >= 0; i-- {
		if v.Pos() < c.loops[i].Pos() {
			return c.loops[i]
		}
	}
	return nil
}

// loopCallsNext reports whether the loop body contains a
// BatchIterator.Next call (so the stored batch is overwritten on the
// next iteration).
func (c *checker) loopCallsNext(loop ast.Node) bool {
	found := false
	ast.Inspect(loop, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && isBatchNext(c.pass.TypesInfo, call) {
			found = true
		}
		return true
	})
	return found
}

func (c *checker) report(pos token.Pos, format string, args ...any) {
	c.pass.Reportf(pos, format, args...)
}

func (c *checker) line(pos token.Pos) int {
	return c.pass.Fset.Position(pos).Line
}

// isBatchNext reports whether call invokes a Next-shaped method whose
// first result is a named RowBatch or *ColBatch type — the BatchIterator
// contract and its columnar twin.
func isBatchNext(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Next", "NextCol", "NextColBatch":
	default:
		return false
	}
	fn, ok := objOf(info, sel.Sel).(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	t := sig.Results().At(0).Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	switch named.Obj().Name() {
	case "RowBatch", "ColBatch":
		return true
	}
	return false
}

func isBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

func objOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Defs[id]; o != nil {
		return o
	}
	return info.Uses[id]
}
