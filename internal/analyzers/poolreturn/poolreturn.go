// Package poolreturn enforces the pooled-buffer discipline around
// sync.Pool and the repo's pool wrappers (row.NewBlockBuffer /
// row.RecycleBlockBuffer, row.GetColBatch / row.PutColBatch): a value
// taken from a pool must, on every path out of the acquiring function,
// either be returned to the pool, or have its ownership visibly
// transferred (returned to the caller, stored, sent, or passed to another
// function). A return or panic that simply abandons the buffer silently
// degrades the pool to plain allocation under load; returning the same
// buffer twice poisons the pool with aliased slices.
//
// A pooled ColBatch is the one exception to "passed to another function":
// by the batch contract a callee that takes one (a reader's NextColBatch,
// a converter) fills or reads it and hands it back, so passing it to a
// declared function or method is a loan, and the caller still owes the
// Put. Passing it to a builtin (append), a function value or a goroutine
// still transfers it.
//
// The check is intraprocedural and path-sensitive over the function's
// statement tree. Ownership transfers end tracking, so the analyzer only
// reports buffers that are provably dropped; a pooled value stored into a
// field is not followed to its owner's Close.
package poolreturn

import (
	"go/ast"
	"go/token"
	"go/types"

	"sqlml/internal/analyzers/framework"
)

// Analyzer is the poolreturn pass.
var Analyzer = &framework.Analyzer{
	Name: "poolreturn",
	Doc:  "flags pool Get results that leak on a return/panic path, and double Puts",
	Run:  run,
}

// maxStates bounds the per-function path explosion; functions that branch
// harder than this are skipped rather than mis-reported.
const maxStates = 64

type varState uint8

const (
	held varState = iota
	released
)

// tracked is one pooled value being followed through a function.
type tracked struct {
	state   varState
	acquire token.Pos
	what    string // e.g. "sync.Pool.Get" or "row.NewBlockBuffer"
	lent    bool   // a ColBatch: call operands borrow it (see the package doc)
}

// state maps pooled locals to their status along one execution path.
type state map[*types.Var]tracked

func (s state) clone() state {
	c := make(state, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

func run(pass *framework.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					analyzeFunc(pass, fn.Body)
				}
			case *ast.FuncLit:
				analyzeFunc(pass, fn.Body)
			}
			return true
		})
	}
	return nil
}

// walker carries the per-function analysis state.
type walker struct {
	pass     *framework.Pass
	deferred map[*types.Var]bool // released by a defer, covers every later exit
	reported map[token.Pos]bool  // dedup across paths
	bailed   bool                // too many states: give up silently
}

func analyzeFunc(pass *framework.Pass, body *ast.BlockStmt) {
	w := &walker{
		pass:     pass,
		deferred: make(map[*types.Var]bool),
		reported: make(map[token.Pos]bool),
	}
	states := []state{make(state)}
	states = w.walkStmts(body.List, states)
	// Falling off the end of the function is an exit like any other.
	w.checkExit(states, body.Rbrace)
}

// walkStmts threads the state set through a statement list, returning the
// states that flow out the bottom. Terminated paths (return/panic/branch)
// drop out of the set.
func (w *walker) walkStmts(stmts []ast.Stmt, states []state) []state {
	for _, s := range stmts {
		if w.bailed || len(states) == 0 {
			return states
		}
		states = w.walkStmt(s, states)
		if len(states) > maxStates {
			w.bailed = true
		}
	}
	return states
}

func (w *walker) walkStmt(stmt ast.Stmt, states []state) []state {
	switch s := stmt.(type) {
	case *ast.AssignStmt:
		w.handleAssign(s, states)
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if w.isPanic(call) {
				w.escapeExpr(call, states, true)
				w.checkExit(states, call.Pos())
				return nil
			}
			if v, double := w.handleRelease(call, states); v != nil {
				if double {
					w.reportOnce(call.Pos(), "pooled buffer %s returned to the pool twice", v.Name())
				}
				return states
			}
		}
		w.escapeExpr(s.X, states, true)
	case *ast.DeferStmt:
		if v, _ := w.handleRelease(s.Call, states); v != nil {
			w.deferred[v] = true
			return states
		}
		w.escapeExpr(s.Call, states, true)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.escapeExpr(r, states, true)
		}
		w.checkExit(states, s.Pos())
		return nil
	case *ast.BranchStmt:
		return nil // break/continue/goto: give up on this path
	case *ast.BlockStmt:
		return w.walkStmts(s.List, states)
	case *ast.IfStmt:
		if s.Init != nil {
			states = w.walkStmt(s.Init, states)
		}
		w.escapeExpr(s.Cond, states, false)
		thenStates := w.walkStmts(s.Body.List, cloneAll(states))
		var elseStates []state
		if s.Else != nil {
			elseStates = w.walkStmt(s.Else, cloneAll(states))
		} else {
			elseStates = states
		}
		return append(thenStates, elseStates...)
	case *ast.ForStmt:
		if s.Init != nil {
			states = w.walkStmt(s.Init, states)
		}
		if s.Cond != nil {
			w.escapeExpr(s.Cond, states, false)
		}
		body := w.walkStmts(s.Body.List, cloneAll(states))
		if s.Post != nil {
			body = w.walkStmt(s.Post, body)
		}
		if s.Cond == nil && len(body) == 0 {
			// for{} with every path terminating inside: nothing flows out.
			return nil
		}
		return append(states, body...)
	case *ast.RangeStmt:
		w.escapeExpr(s.X, states, false)
		body := w.walkStmts(s.Body.List, cloneAll(states))
		return append(states, body...)
	case *ast.SwitchStmt:
		if s.Init != nil {
			states = w.walkStmt(s.Init, states)
		}
		if s.Tag != nil {
			w.escapeExpr(s.Tag, states, false)
		}
		return w.walkCases(s.Body, states)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			states = w.walkStmt(s.Init, states)
		}
		return w.walkCases(s.Body, states)
	case *ast.SelectStmt:
		return w.walkCases(s.Body, states)
	case *ast.SendStmt:
		w.escapeExpr(s.Chan, states, false)
		w.escapeExpr(s.Value, states, true)
	case *ast.GoStmt:
		// A goroutine owns whatever it is handed, lent or not.
		ast.Inspect(s.Call, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				w.escapeIdent(id, states, false)
			}
			return true
		})
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, states)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.escapeExpr(v, states, true)
					}
				}
			}
		}
	case *ast.IncDecStmt:
		// no pooled-value effect
	default:
		// Unknown statement kind: be conservative, release nothing.
	}
	return states
}

// walkCases runs each case body against a clone of the incoming states
// and merges the survivors; a missing default keeps the fallthrough path.
func (w *walker) walkCases(body *ast.BlockStmt, states []state) []state {
	out := states
	hasDefault := false
	for _, c := range body.List {
		var stmts []ast.Stmt
		switch cc := c.(type) {
		case *ast.CaseClause:
			if cc.List == nil {
				hasDefault = true
			}
			for _, e := range cc.List {
				w.escapeExpr(e, states, false)
			}
			stmts = cc.Body
		case *ast.CommClause:
			if cc.Comm == nil {
				hasDefault = true
			} else {
				states = w.walkStmt(cc.Comm, states)
			}
			stmts = cc.Body
		}
		out = append(out, w.walkStmts(stmts, cloneAll(states))...)
	}
	_ = hasDefault
	return out
}

// handleAssign tracks acquisitions (lhs := pool.Get() / NewBlockBuffer())
// and treats assignments of tracked values to anything as an ownership
// transfer. Self-appends (buf = append(buf, ...)) keep tracking.
func (w *walker) handleAssign(s *ast.AssignStmt, states []state) {
	// b = append(b, ...) keeps ownership with b.
	if len(s.Lhs) == 1 && len(s.Rhs) == 1 {
		if id, ok := s.Lhs[0].(*ast.Ident); ok {
			if call, ok := s.Rhs[0].(*ast.CallExpr); ok && isBuiltin(w.pass.TypesInfo, call, "append") && len(call.Args) > 0 {
				if first, ok := unparen(call.Args[0]).(*ast.Ident); ok && first.Name == id.Name {
					for _, a := range call.Args[1:] {
						w.escapeExpr(a, states, true)
					}
					return
				}
			}
		}
	}
	for i, rhs := range s.Rhs {
		if what, ok := w.acquireExpr(rhs); ok && (len(s.Rhs) == len(s.Lhs) || len(s.Rhs) == 1) {
			if id, ok := s.Lhs[i].(*ast.Ident); ok {
				if v, ok := objOf(w.pass.TypesInfo, id).(*types.Var); ok {
					for _, st := range states {
						st[v] = tracked{state: held, acquire: rhs.Pos(), what: what, lent: what == "row.GetColBatch"}
					}
					continue
				}
			}
			continue
		}
		w.escapeExpr(rhs, states, true)
	}
	// Tracked value assigned onward (x.f = b, other = b): ownership moves.
	for i, lhs := range s.Lhs {
		_ = i
		if id, ok := unparen(lhs).(*ast.Ident); ok {
			if v, ok := objOf(w.pass.TypesInfo, id).(*types.Var); ok {
				for _, st := range states {
					if _, tracked := st[v]; tracked && s.Tok == token.ASSIGN && !isSelfAssign(s, id) {
						delete(st, v)
					}
				}
			}
		}
	}
}

// isSelfAssign reports whether id also appears (alone) on the RHS slot of
// its own assignment, e.g. b = b[:0].
func isSelfAssign(s *ast.AssignStmt, id *ast.Ident) bool {
	for i, lhs := range s.Lhs {
		if lhs == id && i < len(s.Rhs) {
			if base, ok := sliceBase(s.Rhs[i]); ok && base.Name == id.Name {
				return true
			}
		}
	}
	return false
}

// sliceBase unwraps b, b[:n], b[i:j] to the base identifier.
func sliceBase(e ast.Expr) (*ast.Ident, bool) {
	for {
		switch x := unparen(e).(type) {
		case *ast.Ident:
			return x, true
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil, false
		}
	}
}

// acquireExpr reports whether e (unwrapped of parens, type assertions,
// derefs and reslices) acquires a pooled value, and from where.
func (w *walker) acquireExpr(e ast.Expr) (string, bool) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.CallExpr:
			if fn := calleeFunc(w.pass.TypesInfo, x); fn != nil {
				if isPoolMethod(fn, "Get") {
					return "sync.Pool.Get", true
				}
				if isAcquireFunc(fn) {
					return fn.Pkg().Name() + "." + fn.Name(), true
				}
			}
			return "", false
		default:
			return "", false
		}
	}
}

// handleRelease recognizes pool.Put(x) / row.RecycleBlockBuffer(x) over a
// tracked variable. It returns the variable (nil if the call is not a
// release of a tracked value) and whether this was a double release.
func (w *walker) handleRelease(call *ast.CallExpr, states []state) (*types.Var, bool) {
	fn := calleeFunc(w.pass.TypesInfo, call)
	if fn == nil || len(call.Args) != 1 {
		return nil, false
	}
	if !isPoolMethod(fn, "Put") && !isReleaseFunc(fn) {
		return nil, false
	}
	arg := unparen(call.Args[0])
	if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.AND {
		arg = unparen(u.X)
	}
	base, ok := sliceBase(arg)
	if !ok {
		return nil, false
	}
	v, ok := objOf(w.pass.TypesInfo, base).(*types.Var)
	if !ok {
		return nil, false
	}
	double := false
	known := false
	for _, st := range states {
		if t, ok := st[v]; ok {
			known = true
			if t.state == released {
				double = true
			}
			t.state = released
			st[v] = t
		}
	}
	if !known {
		// Releasing something we never tracked (a parameter, a field):
		// not ours to check, but it is a release call, not an escape.
		return v, false
	}
	return v, double
}

// escapeExpr ends tracking for every tracked variable that a call,
// composite literal, closure, send, or return hands to someone else.
// Reads (len, comparisons, indexing) do not transfer ownership; when
// directUse is true a bare identifier use (return value, call argument
// position handled by the caller) also escapes.
func (w *walker) escapeExpr(e ast.Expr, states []state, directUse bool) {
	if e == nil {
		return
	}
	loaned := make(map[*ast.Ident]bool) // call operands that only borrow
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			fn := calleeFunc(w.pass.TypesInfo, x)
			if fn != nil && (isPoolMethod(fn, "Put") || isReleaseFunc(fn)) {
				return true // releases are handled by handleRelease
			}
			if isBuiltin(w.pass.TypesInfo, x, "len") || isBuiltin(w.pass.TypesInfo, x, "cap") {
				return false
			}
			// Operands of a declared function or method borrow a lent batch.
			borrow := fn != nil
			operands := x.Args
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
				operands = append(operands[:len(operands):len(operands)], sel.X)
			}
			for _, a := range operands {
				if id := w.escapeIdent(a, states, borrow); id != nil {
					loaned[id] = true
				}
			}
			return true
		case *ast.CompositeLit:
			for _, el := range x.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					w.escapeIdent(kv.Value, states, false)
				} else {
					w.escapeIdent(el, states, false)
				}
			}
		case *ast.FuncLit:
			// Closure capture: anything it mentions escapes.
			ast.Inspect(x.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					w.escapeIdent(id, states, false)
				}
				return true
			})
			return false
		case *ast.Ident:
			if directUse && !loaned[x] {
				w.escapeIdent(x, states, false)
			}
		}
		return true
	})
}

// escapeIdent removes the identifier's variable from tracking if present,
// unless borrow is set and the variable is a lent batch; then it returns
// the identifier, which stays tracked.
func (w *walker) escapeIdent(e ast.Expr, states []state, borrow bool) *ast.Ident {
	base, ok := sliceBase(e)
	if !ok {
		if u, isAddr := unparen(e).(*ast.UnaryExpr); isAddr && u.Op == token.AND {
			base, ok = sliceBase(u.X)
		}
		if !ok {
			return nil
		}
	}
	v, ok := objOf(w.pass.TypesInfo, base).(*types.Var)
	if !ok {
		return nil
	}
	var kept *ast.Ident
	for _, st := range states {
		if borrow && st[v].lent {
			kept = base
			continue
		}
		delete(st, v)
	}
	return kept
}

// checkExit reports every variable still held (and not covered by a
// deferred release) when a path leaves the function.
func (w *walker) checkExit(states []state, pos token.Pos) {
	if w.bailed {
		return
	}
	for _, st := range states {
		for v, t := range st {
			if t.state == held && !w.deferred[v] {
				w.reportOnce(pos, "%s acquired from %s leaks here: no Put/Recycle on this path", v.Name(), t.what)
			}
		}
	}
}

func (w *walker) reportOnce(pos token.Pos, format string, args ...any) {
	if w.reported[pos] {
		return
	}
	w.reported[pos] = true
	w.pass.Reportf(pos, format, args...)
}

func (w *walker) isPanic(call *ast.CallExpr) bool {
	return isBuiltin(w.pass.TypesInfo, call, "panic")
}

func cloneAll(states []state) []state {
	out := make([]state, len(states))
	for i, s := range states {
		out[i] = s.clone()
	}
	return out
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

func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch f := unparen(call.Fun).(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return nil
	}
	fn, _ := objOf(info, id).(*types.Func)
	return fn
}

func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// isPoolMethod reports whether fn is (*sync.Pool).<name>.
func isPoolMethod(fn *types.Func, name string) bool {
	if fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Pool" && isPkg(named.Obj().Pkg(), "sync")
}

// isAcquireFunc / isReleaseFunc match the repo's pool wrappers (and their
// fixture stand-ins, keyed by package name).
func isAcquireFunc(fn *types.Func) bool {
	return (fn.Name() == "NewBlockBuffer" || fn.Name() == "GetColBatch") && isPkg(fn.Pkg(), "row")
}

func isReleaseFunc(fn *types.Func) bool {
	return (fn.Name() == "RecycleBlockBuffer" || fn.Name() == "PutColBatch") && isPkg(fn.Pkg(), "row")
}

// isPkg matches a package by name, accepting both the real module path
// and the short fixture import path.
func isPkg(p *types.Package, name string) bool {
	return p != nil && p.Name() == name
}
