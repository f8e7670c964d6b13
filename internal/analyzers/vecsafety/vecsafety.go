// Package vecsafety enforces the ColBatch discipline that the columnar
// engine's poisoning and residency tests probe dynamically. A ColBatch
// has two lengths — Len() is logical (selection vector applied), FullLen()
// physical — and a pooled lifetime; confusing either corrupts results
// silently rather than crashing. Three rules:
//
//   - sel-blind indexing: a loop bounded by ColBatch.Len() must not index
//     vector storage (the Ints/Floats/Bools slices, or per-position
//     accessors like Bytes/Null/ValueAt) with the raw loop variable. With
//     a live selection vector, logical position i lives at physical
//     position SelPos(i); the raw index reads rows the selection filtered
//     out. Functions that visibly handle selection — branching on Sel(),
//     translating with SelPos, or calling ClearSel — are exempt.
//
//   - use after release: once PutColBatch(b) returns a batch to the pool,
//     any later use of b — or of a view previously obtained from it via
//     Col/Sel/Bytes — races with the pool's next caller.
//     Deferred releases are fine (they run at function exit); a
//     reassignment of the variable starts a fresh batch.
//
//   - dense/append mode mix: ResetDense pre-sizes storage for positional
//     writes (v.Ints[i] = x) and fixes the vector's length up front;
//     calling Append* afterwards grows past the pre-sized region and
//     desynchronizes the null bitmap from the data. After ResetDense,
//     Append* is flagged until a plain Reset switches back to append mode.
package vecsafety

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"sqlml/internal/analyzers/framework"
)

// Analyzer is the vecsafety pass.
var Analyzer = &framework.Analyzer{
	Name: "vecsafety",
	Doc:  "flags ColBatch misuse: selection-blind indexing, use after pool release, dense/append mode mixes",
	Run:  run,
}

// kindColLen tags values derived from ColBatch.Len().
const kindColLen = "collen"

func run(pass *framework.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkFunc(pass, fn.Body)
				}
			case *ast.FuncLit:
				checkFunc(pass, fn.Body)
			}
			return true
		})
	}
	return nil
}

func checkFunc(pass *framework.Pass, body *ast.BlockStmt) {
	checkSelBlindIndexing(pass, body)
	checkUseAfterRelease(pass, body)
	checkDenseAppendMix(pass, body)
}

// --- rule 1: selection-blind indexing ------------------------------------

// lenLoop records one for-loop bounded by ColBatch.Len().
type lenLoop struct {
	induction *types.Var
	lenPos    token.Pos
}

func checkSelBlindIndexing(pass *framework.Pass, body *ast.BlockStmt) {
	if selectionAware(pass.TypesInfo, body) {
		return
	}
	fl := framework.NewFlow(pass.TypesInfo, framework.FlowConfig{
		Call: func(call *ast.CallExpr) (string, bool) {
			if isColBatchCall(pass.TypesInfo, call, "Len") {
				return kindColLen, true
			}
			return "", false
		},
	})
	storage := storageVars(pass.TypesInfo, body)
	loops := make(map[ast.Node]lenLoop)

	fl.Walk(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ForStmt:
			if ll, ok := classifyLenLoop(pass.TypesInfo, fl, x); ok {
				loops[x] = ll
			}
		case *ast.IndexExpr:
			iv, ok := inductionVarOf(pass.TypesInfo, fl, loops, x.Index)
			if !ok {
				return true
			}
			if isVectorStorage(pass.TypesInfo, storage, x.X) {
				pass.Reportf(x.Pos(), "vector storage indexed by the raw variable of a loop bounded by ColBatch.Len() (line %d); Len() is the logical length — with a live selection vector position %s maps to physical index SelPos(%s)", line(pass, iv.lenPos), indexName(x.Index), indexName(x.Index))
			}
		case *ast.CallExpr:
			// Per-position Vector accessors taking a physical index.
			sel, ok := framework.Unparen(x.Fun).(*ast.SelectorExpr)
			if !ok || len(x.Args) == 0 {
				return true
			}
			switch sel.Sel.Name {
			case "Bytes", "StringAt", "Null", "ValueAt", "SetNull":
			default:
				return true
			}
			if framework.NamedTypeName(pass.TypesInfo, sel.X) != "Vector" {
				return true
			}
			if iv, ok := inductionVarOf(pass.TypesInfo, fl, loops, x.Args[0]); ok {
				pass.Reportf(x.Pos(), "Vector.%s called with the raw variable of a loop bounded by ColBatch.Len() (line %d); translate with SelPos first — the accessor takes a physical index", sel.Sel.Name, line(pass, iv.lenPos))
			}
		}
		return true
	})
}

// classifyLenLoop recognizes `for i := ...; i < K; ...` (or <=) where K
// derives from ColBatch.Len().
func classifyLenLoop(info *types.Info, fl *framework.Flow, s *ast.ForStmt) (lenLoop, bool) {
	cond, ok := s.Cond.(*ast.BinaryExpr)
	if !ok || (cond.Op != token.LSS && cond.Op != token.LEQ) {
		return lenLoop{}, false
	}
	id, ok := framework.Unparen(cond.X).(*ast.Ident)
	if !ok {
		return lenLoop{}, false
	}
	iv, ok := framework.ObjOf(info, id).(*types.Var)
	if !ok {
		return lenLoop{}, false
	}
	for _, o := range fl.Origins(cond.Y) {
		if o.Kind == kindColLen {
			return lenLoop{induction: iv, lenPos: o.Pos}, true
		}
	}
	return lenLoop{}, false
}

// inductionVarOf reports whether e is the bare induction variable of an
// enclosing Len-bounded loop.
func inductionVarOf(info *types.Info, fl *framework.Flow, loops map[ast.Node]lenLoop, e ast.Expr) (lenLoop, bool) {
	id, ok := framework.Unparen(e).(*ast.Ident)
	if !ok {
		return lenLoop{}, false
	}
	v, ok := framework.ObjOf(info, id).(*types.Var)
	if !ok {
		return lenLoop{}, false
	}
	for _, l := range fl.Loops() {
		if ll, ok := loops[l]; ok && ll.induction == v {
			return ll, true
		}
	}
	return lenLoop{}, false
}

// isVectorStorage reports whether e is a typed storage slice of a Vector:
// a .Ints/.Floats/.Bools selector on a Vector, or a variable assigned
// from one.
func isVectorStorage(info *types.Info, storage map[*types.Var]bool, e ast.Expr) bool {
	switch x := framework.Unparen(e).(type) {
	case *ast.SelectorExpr:
		return isStorageField(x.Sel.Name) && framework.NamedTypeName(info, x.X) == "Vector"
	case *ast.Ident:
		v, ok := framework.ObjOf(info, x).(*types.Var)
		return ok && storage[v]
	}
	return false
}

func isStorageField(name string) bool {
	return name == "Ints" || name == "Floats" || name == "Bools"
}

// storageVars collects variables assigned from a Vector storage slice
// anywhere in the body (ints := vec.Ints).
func storageVars(info *types.Info, body *ast.BlockStmt) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			sel, ok := framework.Unparen(as.Rhs[i]).(*ast.SelectorExpr)
			if !ok || !isStorageField(sel.Sel.Name) || framework.NamedTypeName(info, sel.X) != "Vector" {
				continue
			}
			if id, ok := framework.Unparen(lhs).(*ast.Ident); ok {
				if v, ok := framework.ObjOf(info, id).(*types.Var); ok {
					out[v] = true
				}
			}
		}
		return true
	})
	return out
}

// selectionAware reports whether the function visibly handles the
// selection vector: it branches on Sel(), translates with SelPos, or
// drops the selection with ClearSel. Such functions chose a side of the
// logical/physical split deliberately.
func selectionAware(info *types.Info, body *ast.BlockStmt) bool {
	aware := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isColBatchCall(info, call, "SelPos") || isColBatchCall(info, call, "ClearSel") || isColBatchCall(info, call, "Sel") {
			aware = true
			return false
		}
		return true
	})
	return aware
}

// isColBatchCall reports whether call is <ColBatch>.<name>(...).
func isColBatchCall(info *types.Info, call *ast.CallExpr, name string) bool {
	sel, ok := framework.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	return framework.NamedTypeName(info, sel.X) == "ColBatch"
}

// --- rule 2: use after release -------------------------------------------

func checkUseAfterRelease(pass *framework.Pass, body *ast.BlockStmt) {
	released := make(map[*types.Var]token.Pos) // batch var -> release end
	derived := make(map[*types.Var]*types.Var) // view var -> batch var

	inspectBody(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.DeferStmt:
			return false // deferred release runs at function exit
		case *ast.AssignStmt:
			// v := b.Col(i) and friends: record the view's parent batch.
			// b = GetColBatch(...): reassignment revives the variable.
			for i, lhs := range x.Lhs {
				id, ok := framework.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				v, ok := framework.ObjOf(pass.TypesInfo, id).(*types.Var)
				if !ok {
					continue
				}
				if _, wasReleased := released[v]; wasReleased && (x.Tok == token.ASSIGN || x.Tok == token.DEFINE) {
					delete(released, v)
				}
				if i < len(x.Rhs) && len(x.Lhs) == len(x.Rhs) {
					if b := viewParent(pass.TypesInfo, x.Rhs[i]); b != nil {
						derived[v] = b
					}
				}
			}
		case *ast.CallExpr:
			if b := releasedBatch(pass.TypesInfo, x); b != nil {
				released[b] = x.End()
			}
		case *ast.Ident:
			v, ok := framework.ObjOf(pass.TypesInfo, x).(*types.Var)
			if !ok {
				return true
			}
			batch, since := v, released[v]
			if since == 0 {
				if parent, isView := derived[v]; isView {
					batch, since = parent, released[parent]
				}
			}
			if since != 0 && x.Pos() > since {
				what := "batch"
				if batch != v {
					what = "view of batch " + batch.Name()
				}
				pass.Reportf(x.Pos(), "use of %s %s after PutColBatch returned it to the pool (line %d); the pool may already have handed the batch to another goroutine", what, x.Name, line(pass, since))
			}
		}
		return true
	})
}

// releasedBatch returns the batch variable passed to PutColBatch, or nil.
func releasedBatch(info *types.Info, call *ast.CallExpr) *types.Var {
	name := ""
	switch f := framework.Unparen(call.Fun).(type) {
	case *ast.Ident:
		name = f.Name
	case *ast.SelectorExpr:
		name = f.Sel.Name
	}
	if name != "PutColBatch" || len(call.Args) != 1 {
		return nil
	}
	id, ok := framework.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := framework.ObjOf(info, id).(*types.Var)
	return v
}

// viewParent returns the batch variable a view expression borrows from:
// b.Col(i), b.Sel(), and the other accessors that alias batch memory.
func viewParent(info *types.Info, rhs ast.Expr) *types.Var {
	call, ok := framework.Unparen(rhs).(*ast.CallExpr)
	if !ok {
		return nil
	}
	sel, ok := framework.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	switch sel.Sel.Name {
	case "Col", "Sel", "Bytes":
	default:
		return nil
	}
	recv, ok := framework.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil
	}
	if framework.NamedTypeName(info, sel.X) != "ColBatch" && framework.NamedTypeName(info, sel.X) != "Vector" {
		return nil
	}
	v, _ := framework.ObjOf(info, recv).(*types.Var)
	return v
}

// --- rule 3: dense/append mode mix ---------------------------------------

func checkDenseAppendMix(pass *framework.Pass, body *ast.BlockStmt) {
	dense := make(map[*types.Var]token.Pos) // vector var -> ResetDense end

	inspectBody(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if id, ok := framework.Unparen(lhs).(*ast.Ident); ok {
					if v, ok := framework.ObjOf(pass.TypesInfo, id).(*types.Var); ok {
						delete(dense, v) // fresh vector value
					}
				}
			}
		case *ast.CallExpr:
			sel, ok := framework.Unparen(x.Fun).(*ast.SelectorExpr)
			if !ok || framework.NamedTypeName(pass.TypesInfo, sel.X) != "Vector" {
				return true
			}
			recv, ok := framework.Unparen(sel.X).(*ast.Ident)
			if !ok {
				return true
			}
			v, ok := framework.ObjOf(pass.TypesInfo, recv).(*types.Var)
			if !ok {
				return true
			}
			switch {
			case sel.Sel.Name == "ResetDense":
				dense[v] = x.End()
			case sel.Sel.Name == "Reset":
				delete(dense, v)
			case strings.HasPrefix(sel.Sel.Name, "Append"):
				if since, isDense := dense[v]; isDense && x.Pos() > since {
					pass.Reportf(x.Pos(), "%s.%s after ResetDense (line %d); dense mode pre-sizes storage for positional writes and fixes the length — write by index, or use Reset for append mode", recv.Name, sel.Sel.Name, line(pass, since))
				}
			}
		}
		return true
	})
}

// --- shared helpers -------------------------------------------------------

// inspectBody walks the body in source order, skipping nested function
// literals (each closure is checked as its own function).
func inspectBody(body *ast.BlockStmt, visit func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return visit(n)
	})
}

func indexName(e ast.Expr) string {
	if id, ok := framework.Unparen(e).(*ast.Ident); ok {
		return id.Name
	}
	return "i"
}

func line(pass *framework.Pass, pos token.Pos) int {
	return pass.Fset.Position(pos).Line
}
