package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// maporderAnalyzer protects the engine's deterministic, index-ordered
// assembly: Go randomizes map iteration order, so a `range` over a map whose
// body has an order-sensitive effect — appending to a slice, sending on a
// channel, scheduling a sim event, or writing output — produces a different
// run every time. Order-insensitive bodies (counting, summing into integers,
// keyed writes into another map) pass. An append is also fine when the
// collected slice is sorted later in the same function, the
// collect-then-sort idiom used by ltr.Reports and aonio.Names.
var maporderAnalyzer = &Analyzer{
	Name: "maporder",
	Doc:  "flag order-sensitive effects inside range-over-map loops",
	Run:  runMaporder,
}

func runMaporder(pass *Pass) {
	for _, f := range pass.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if t := pass.Info.TypeOf(rng.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					checkMapRangeBody(pass, rng, enclosingBody(stack[:len(stack)-1]))
				}
			}
			return true
		})
	}
}

// enclosingBody returns the body of the innermost enclosing function.
func enclosingBody(ancestors []ast.Node) *ast.BlockStmt {
	for i := len(ancestors) - 1; i >= 0; i-- {
		switch fn := ancestors[i].(type) {
		case *ast.FuncDecl:
			return fn.Body
		case *ast.FuncLit:
			return fn.Body
		}
	}
	return nil
}

func checkMapRangeBody(pass *Pass, rng *ast.RangeStmt, body *ast.BlockStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "channel send inside range over map runs in nondeterministic order; iterate sorted keys")
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltinAppend(pass, call) {
					continue
				}
				if i < len(n.Lhs) {
					if target, ok := n.Lhs[i].(*ast.Ident); ok {
						if obj := pass.Info.ObjectOf(target); obj != nil && sortedAfter(pass, body, rng.End(), obj) {
							continue
						}
					}
				}
				pass.Reportf(call.Pos(), "append inside range over map builds a nondeterministically ordered slice; iterate sorted keys or sort the result")
			}
		case *ast.CallExpr:
			checkMapRangeCall(pass, n)
		}
		return true
	})
}

func checkMapRangeCall(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, _ := pass.Info.Uses[sel.Sel].(*types.Func)
	if fn == nil {
		return
	}
	// Output writes: fmt printers and io-style Write methods emit bytes in
	// iteration order.
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
		(strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint")) {
		pass.Reportf(call.Pos(), "fmt.%s inside range over map writes output in nondeterministic order; iterate sorted keys", fn.Name())
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return
	}
	recv := sig.Recv().Type()
	switch {
	case recvNamed(recv, "odrips/internal/sim", "Scheduler"):
		switch fn.Name() {
		case "At", "After", "Every":
			pass.Reportf(call.Pos(), "scheduling a sim event inside range over map assigns nondeterministic sequence numbers; iterate sorted keys")
		}
	case strings.HasPrefix(fn.Name(), "Write") || fn.Name() == "AddRow" || fn.Name() == "AddNote":
		pass.Reportf(call.Pos(), "%s.%s inside range over map writes output in nondeterministic order; iterate sorted keys",
			recvTypeName(recv), fn.Name())
	}
}

func isBuiltinAppend(pass *Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// sortedAfter reports whether, later in the enclosing function body, the
// slice variable obj is handed to a sort.* or slices.Sort* call — the
// collect-then-sort idiom that re-establishes a deterministic order.
func sortedAfter(pass *Pass, body *ast.BlockStmt, after token.Pos, obj types.Object) bool {
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < after {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if mentions(pass, arg, obj) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func mentions(pass *Pass, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.Info.ObjectOf(id) == obj {
			found = true
			return false
		}
		return !found
	})
	return found
}

// namedOf returns the named type t is or points to, or nil.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

func recvNamed(t types.Type, pkgPath, name string) bool {
	n := namedOf(t)
	return n != nil && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == pkgPath && n.Obj().Name() == name
}

func recvTypeName(t types.Type) string {
	if n := namedOf(t); n != nil {
		return n.Obj().Name()
	}
	return t.String()
}
