// Package retrybudget enforces the recovery discipline the chaos suite
// relies on: every reconnect/retry loop in the transfer stack must consume
// a named budget and back off with a cap. SenderConfig's ReconnectBudget
// and InputFormat's ReconnectBudget are threaded through configuration;
// the constant hadoopfmt.MaxTaskAttempts bounds every task re-execution,
// all of which runs in hadoopfmt.WithAttemptBudget. The chaos tests assert that an
// unrecoverable peer surfaces the last error after the budget drains
// instead of spinning forever. Two rules:
//
//   - unbudgeted reconnect loop: a `for {}` with no condition that calls a
//     connection primitive (Dial*/Accept*/dial/connect/redial) and retries
//     via `continue` is flagged unless the loop mentions a budget-shaped
//     identifier (anything containing "budget", "attempt", "retries", or
//     "retry") or delegates to a named recovery helper (reconnect/recover
//     methods own their budget internally and are checked on their own).
//     Server accept loops that return on error have no `continue` and
//     stay silent.
//
//   - uncapped backoff: a delay that doubles inside a loop (d *= 2,
//     d = d * 2) and feeds a Sleep/After call is flagged unless the delay
//     is compared against a bound (or clamped via min) somewhere in the
//     function. Uncapped doubling overflows into negative durations after
//     ~63 iterations, turning backoff into a hot spin.
package retrybudget

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"sqlml/internal/analyzers/framework"
)

// Analyzer is the retrybudget pass.
var Analyzer = &framework.Analyzer{
	Name: "retrybudget",
	Doc:  "flags reconnect/retry loops without a named budget and exponential backoff without a cap",
	Run:  run,
}

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
	capped := comparedVars(pass.TypesInfo, body)
	inspectBody(body, func(n ast.Node) bool {
		loop, ok := n.(*ast.ForStmt)
		if !ok {
			return true
		}
		checkUnbudgetedLoop(pass, loop)
		checkUncappedBackoff(pass, loop, capped)
		return true
	})
}

// --- rule 1: unbudgeted reconnect loop -----------------------------------

func checkUnbudgetedLoop(pass *framework.Pass, loop *ast.ForStmt) {
	if loop.Cond != nil {
		return // a conditioned loop bounds itself
	}
	dial := false
	retries := false
	budgeted := false
	inspectBody(loop.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if isDialCall(x) {
				dial = true
			}
		case *ast.BranchStmt:
			if x.Tok == token.CONTINUE && x.Label == nil && !insideNestedLoop(loop, x.Pos()) {
				retries = true
			}
		case *ast.Ident:
			if budgetShaped(x.Name) {
				budgeted = true
			}
		}
		return true
	})
	if dial && retries && !budgeted {
		pass.Reportf(loop.Pos(), "unbounded reconnect loop: a connection attempt is retried with no named budget; thread a ReconnectBudget-style counter through (task re-execution goes through hadoopfmt.WithAttemptBudget and its MaxTaskAttempts) and surface the last error when it is exhausted")
	}
}

// insideNestedLoop reports whether pos falls inside a loop nested within
// outer — such a continue targets the inner loop, not outer.
func insideNestedLoop(outer *ast.ForStmt, pos token.Pos) bool {
	nested := false
	ast.Inspect(outer.Body, func(n ast.Node) bool {
		if nested {
			return false
		}
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			if n.Pos() <= pos && pos < n.End() {
				nested = true
			}
			return false
		case *ast.FuncLit:
			return false
		}
		return true
	})
	return nested
}

// isDialCall reports whether call invokes a raw connection primitive. A
// budgeted recovery wrapper (a slot's reconnect) is not one: the
// budget lives inside it.
func isDialCall(call *ast.CallExpr) bool {
	name := ""
	switch f := framework.Unparen(call.Fun).(type) {
	case *ast.Ident:
		name = f.Name
	case *ast.SelectorExpr:
		name = f.Sel.Name
	}
	switch name {
	case "connect", "dial", "redial":
		return true
	}
	return strings.HasPrefix(name, "Dial") || strings.HasPrefix(name, "Accept")
}

// budgetShaped reports whether an identifier names a retry budget, or a
// recovery helper that encapsulates one (reconnect/recover methods own
// their budget internally; their loops are conditioned on it and checked
// on their own).
func budgetShaped(name string) bool {
	l := strings.ToLower(name)
	return strings.Contains(l, "budget") ||
		strings.Contains(l, "attempt") ||
		strings.Contains(l, "retries") ||
		strings.Contains(l, "retry") ||
		strings.Contains(l, "reconnect") ||
		strings.Contains(l, "recover")
}

// --- rule 2: uncapped backoff --------------------------------------------

func checkUncappedBackoff(pass *framework.Pass, loop *ast.ForStmt, capped map[*types.Var]bool) {
	// Collect delay variables that double inside this loop.
	doubling := make(map[*types.Var]*ast.AssignStmt)
	inspectBody(loop.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		if v := doubledVar(pass.TypesInfo, as); v != nil {
			doubling[v] = as
		}
		return true
	})
	if len(doubling) == 0 {
		return
	}
	// A doubling delay is a finding only if it feeds a sleep in the loop
	// and is never compared against a bound in the function.
	inspectBody(loop.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isSleepCall(call) {
			return true
		}
		for _, a := range call.Args {
			id, ok := framework.Unparen(a).(*ast.Ident)
			if !ok {
				continue
			}
			v, ok := framework.ObjOf(pass.TypesInfo, id).(*types.Var)
			if !ok {
				continue
			}
			if as, doubles := doubling[v]; doubles && !capped[v] {
				pass.Reportf(as.Pos(), "backoff delay %s doubles every iteration with no cap before the sleep; clamp it against a maximum (the engine's backoffDelay caps growth) — uncapped doubling overflows into a hot spin", id.Name)
				delete(doubling, v) // one report per variable
			}
		}
		return true
	})
}

// doubledVar returns the variable d for `d *= 2` or `d = d * 2` /
// `d = 2 * d`, else nil.
func doubledVar(info *types.Info, as *ast.AssignStmt) *types.Var {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil
	}
	id, ok := framework.Unparen(as.Lhs[0]).(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := framework.ObjOf(info, id).(*types.Var)
	if !ok {
		return nil
	}
	if as.Tok == token.MUL_ASSIGN {
		return v
	}
	if as.Tok != token.ASSIGN {
		return nil
	}
	mul, ok := framework.Unparen(as.Rhs[0]).(*ast.BinaryExpr)
	if !ok || mul.Op != token.MUL {
		return nil
	}
	for _, side := range []ast.Expr{mul.X, mul.Y} {
		if sid, ok := framework.Unparen(side).(*ast.Ident); ok {
			if sv, _ := framework.ObjOf(info, sid).(*types.Var); sv == v {
				return v
			}
		}
	}
	return nil
}

// isSleepCall reports whether call parks on a delay: time.Sleep,
// time.After, or a NewTimer/Reset taking the delay.
func isSleepCall(call *ast.CallExpr) bool {
	name := ""
	switch f := framework.Unparen(call.Fun).(type) {
	case *ast.Ident:
		name = f.Name
	case *ast.SelectorExpr:
		name = f.Sel.Name
	}
	switch name {
	case "Sleep", "After", "NewTimer", "Reset":
		return true
	}
	return false
}

// comparedVars collects variables that appear in a relational comparison
// or a min/max clamp anywhere in the body — the "has a cap" evidence.
func comparedVars(info *types.Info, body *ast.BlockStmt) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	mark := func(e ast.Expr) {
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if v, ok := framework.ObjOf(info, id).(*types.Var); ok {
					out[v] = true
				}
			}
			return true
		})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.BinaryExpr:
			switch x.Op {
			case token.LSS, token.LEQ, token.GTR, token.GEQ:
				mark(x.X)
				mark(x.Y)
			}
		case *ast.CallExpr:
			if id, ok := framework.Unparen(x.Fun).(*ast.Ident); ok && (id.Name == "min" || id.Name == "max") {
				for _, a := range x.Args {
					mark(a)
				}
			}
		}
		return true
	})
	return out
}

// inspectBody walks a subtree in source order, skipping nested function
// literals.
func inspectBody(n ast.Node, visit func(ast.Node) bool) {
	ast.Inspect(n, func(c ast.Node) bool {
		if c == nil {
			return false
		}
		if _, ok := c.(*ast.FuncLit); ok {
			return false
		}
		return visit(c)
	})
}
