// Package wiretrust enforces the decoder discipline that FuzzBlockFrame
// probes dynamically: an allocation must never be sized by a value decoded
// from the wire unless that value was bounds-checked first. The colblock
// and block decoders in internal/row read lengths, row counts, and
// dictionary sizes via uvarints and fixed-width frame-header words; every
// one of those is attacker-controlled on a hostile stream, and a make()
// sized by an unchecked one turns a 10-byte frame into a multi-gigabyte
// allocation — the exact over-allocation FuzzBlockFrame asserts cannot
// happen.
//
// The pass uses the framework's dataflow layer: values returned by
// encoding/binary decode calls (Uvarint, Varint, ReadUvarint, ReadVarint,
// and the ByteOrder Uint16/Uint32/Uint64 readers) are tagged as
// wire-derived, the taint follows assignments, arithmetic, and
// conversions, and a comparison anywhere on the path (against
// MaxBlockSize, len(payload), a dictionary cap, …) marks the value
// checked. Flagged sinks:
//
//   - make(T, n) or make(T, l, c) where a size is wire-derived and
//     unchecked — including the append(buf, make([]byte, n)...) read
//     idiom;
//   - Grow(n) (bytes.Buffer, slices.Grow) with an unchecked wire size.
//
// A value flowing straight from the decode call into the sink
// (make([]byte, binary.Uvarint(q)) with no intervening check) is always
// flagged. Slicing an existing buffer (payload[:n]) allocates nothing and
// is not a sink: the slice bounds check catches the lie at run time.
package wiretrust

import (
	"go/ast"
	"go/types"

	"sqlml/internal/analyzers/framework"
)

// Analyzer is the wiretrust pass.
var Analyzer = &framework.Analyzer{
	Name: "wiretrust",
	Doc:  "flags allocations sized by wire-decoded values that were never bounds-checked",
	Run:  run,
}

// kindWire tags values decoded from wire bytes.
const kindWire = "wire"

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
	fl := framework.NewFlow(pass.TypesInfo, framework.FlowConfig{
		Call: func(call *ast.CallExpr) (string, bool) {
			if isWireDecode(pass.TypesInfo, call) {
				return kindWire, true
			}
			return "", false
		},
	})
	fl.Walk(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch {
		case isBuiltin(pass.TypesInfo, call, "make"):
			for _, size := range call.Args[1:] {
				checkSize(pass, fl, call, size)
			}
		case calleeName(call) == "Grow" && len(call.Args) >= 1:
			checkSize(pass, fl, call, call.Args[len(call.Args)-1])
		}
		return true
	})
}

// checkSize reports an allocation whose size is wire-derived and was
// never compared against a bound.
func checkSize(pass *framework.Pass, fl *framework.Flow, call *ast.CallExpr, size ast.Expr) {
	var wire *framework.Origin
	for _, o := range fl.Origins(size) {
		if o.Kind == kindWire {
			wire = &o
			break
		}
	}
	if wire == nil || fl.Guarded(size) {
		return
	}
	pass.Reportf(call.Pos(), "allocation sized by a wire-decoded value (line %d) with no preceding bound check; a hostile frame chooses this size — compare it against a limit (MaxBlockSize/len of the remaining payload) first", pass.Fset.Position(wire.Pos).Line)
}

// isWireDecode reports whether call decodes an integer off wire bytes:
// encoding/binary's varint readers and ByteOrder fixed-width readers.
// Matching is by package name ("binary"), so the analyzertest stub works
// the same as the real encoding/binary.
func isWireDecode(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := framework.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := framework.ObjOf(info, sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Name() != "binary" {
		return false
	}
	switch fn.Name() {
	case "Uvarint", "Varint", "ReadUvarint", "ReadVarint",
		"Uint16", "Uint32", "Uint64":
		return true
	}
	return false
}

func calleeName(call *ast.CallExpr) string {
	switch f := framework.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}

func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := framework.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}
