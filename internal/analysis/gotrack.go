package analysis

import (
	"go/ast"
	"go/types"
)

// gotrackAnalyzer polices goroutine launches. The byte-identity guarantee
// (RunPoints output identical at any runtime worker count) only holds
// while every goroutine is joined before its results are read; a
// fire-and-forget goroutine is either a leak or a data race waiting for
// the fleet server's load profile. Two checks:
//
//   - every `go func(){...}()` whose body does not call
//     (*sync.WaitGroup).Done — the join protocol this codebase uses
//     everywhere — is flagged, as is any `go` of a named function or
//     method (the analyzer cannot see into those bodies, so the launch
//     site must either wrap it in a joined closure or carry an allow);
//   - a `go` statement inside a `range` over a map is always flagged,
//     joined or not: the launch order is map-iteration order, so anything
//     order-sensitive the goroutines do (claiming indices, appending,
//     first-error selection) varies run to run.
//
// Genuinely detached goroutines (a future server's accept loop) document
// themselves with //odrips:allow gotrack <reason>.
var gotrackAnalyzer = &Analyzer{
	Name: "gotrack",
	Doc:  "every go statement joins via WaitGroup.Done in its body, or carries an allow; no go inside range-over-map",
	Run:  runGotrack,
}

func runGotrack(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// Stack of enclosing statements, so a go statement can look
			// outward for a range-over-map without crossing into the
			// enclosing function literal's own launch context.
			var stack []ast.Node
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				stack = append(stack, n)
				gs, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if rng := mapRangeAbove(pass, stack[:len(stack)-1]); rng != nil {
					pass.Reportf(gs.Pos(),
						"goroutine launched inside range over map %s: launch order is map-iteration order and varies run to run; collect keys into a sorted slice first",
						types.ExprString(rng.X))
				}
				lit, ok := gs.Call.Fun.(*ast.FuncLit)
				if !ok {
					pass.Reportf(gs.Pos(),
						"go of named function %s hides its join; wrap it in a closure that defers wg.Done (or annotate //odrips:allow gotrack <reason>)",
						types.ExprString(gs.Call.Fun))
					return true
				}
				if !callsWaitGroupDone(pass, lit.Body) {
					pass.Reportf(gs.Pos(),
						"goroutine body never calls (*sync.WaitGroup).Done: nothing joins this goroutine before results are read; add a WaitGroup (or annotate //odrips:allow gotrack <reason>)")
				}
				return true
			})
		}
	}
}

// mapRangeAbove walks the ancestor stack outward from a go statement and
// returns the innermost enclosing range-over-map, stopping at any function
// boundary (a func literal between the range and the go statement runs
// later, under its own rules).
func mapRangeAbove(pass *Pass, stack []ast.Node) *ast.RangeStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.FuncLit:
			return nil
		case *ast.RangeStmt:
			if tv, ok := pass.Info.Types[n.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					return n
				}
			}
		}
	}
	return nil
}

// callsWaitGroupDone reports whether body (including nested literals —
// a deferred closure calling wg.Done counts) contains a call that resolves
// to (*sync.WaitGroup).Done.
func callsWaitGroupDone(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Done" {
			return true
		}
		selInfo, ok := pass.Info.Selections[sel]
		if !ok {
			return true
		}
		fn, ok := selInfo.Obj().(*types.Func)
		if !ok {
			return true
		}
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return true
		}
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			obj := named.Obj()
			if obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup" {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
