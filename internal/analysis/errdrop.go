package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// errdropAnalyzer protects the fail-safe load paths. The persistent memo
// store is deliberately tolerant: Load returns (payload, ok, err) where a
// typed *CorruptError is a recoverable miss, not a failure — but that
// tolerance is a contract the CALLER discharges by inspecting err, not by
// discarding it. A `payload, ok, _ := s.Load(...)` silently converts disk
// corruption, permission errors, and codec drift into cold-cache behavior,
// which is exactly the class of bug that made ffpersist re-simulate
// thousands of cycles without anyone noticing. Flagged call shapes:
//
//   - assignments that bind an error result of a fail-safe loader to `_`;
//   - bare expression statements that call one and drop every result.
//
// Fail-safe loaders are: Load*, Claim, and AwaitClaimed methods on
// odrips/internal/memostore.Store, Parse in odrips/internal/faults, and
// any function whose name starts with "ffDecode" and returns an error
// (the platform bundle codec convention).
var errdropAnalyzer = &Analyzer{
	Name: "errdrop",
	Doc:  "errors from fail-safe load paths (memostore Load*/Claim/AwaitClaimed, faults.Parse, ffDecode*) must be handled, not blanked",
	Run:  runErrdrop,
}

func runErrdrop(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				// Single-call form: lhs... := f(...)
				if len(n.Rhs) != 1 {
					return true
				}
				call, ok := n.Rhs[0].(*ast.CallExpr)
				if !ok {
					return true
				}
				name, errIdx := failSafeLoader(pass, call)
				if name == "" || errIdx < 0 || errIdx >= len(n.Lhs) {
					return true
				}
				if id, ok := n.Lhs[errIdx].(*ast.Ident); ok && id.Name == "_" {
					pass.Reportf(n.Pos(),
						"error from fail-safe loader %s discarded with _; a typed miss (*memostore.CorruptError and kin) must be handled explicitly",
						name)
				}
			case *ast.ExprStmt:
				call, ok := n.X.(*ast.CallExpr)
				if !ok {
					return true
				}
				if name, errIdx := failSafeLoader(pass, call); name != "" && errIdx >= 0 {
					pass.Reportf(n.Pos(),
						"result of fail-safe loader %s dropped entirely; its error return must be handled",
						name)
				}
			}
			return true
		})
	}
}

// failSafeLoader reports whether call targets one of the protected loaders,
// returning its display name and the index of the error result (-1 when the
// call is not protected or returns no error).
func failSafeLoader(pass *Pass, call *ast.CallExpr) (string, int) {
	var fn *types.Func
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if obj, ok := pass.Info.Uses[fun.Sel].(*types.Func); ok {
			fn = obj
		}
	case *ast.Ident:
		if obj, ok := pass.Info.Uses[fun].(*types.Func); ok {
			fn = obj
		}
	}
	if fn == nil || fn.Pkg() == nil {
		return "", -1
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return "", -1
	}
	errIdx := -1
	for i := 0; i < sig.Results().Len(); i++ {
		if isErrorType(sig.Results().At(i).Type()) {
			errIdx = i
			break
		}
	}
	if errIdx < 0 {
		return "", -1
	}

	pkgPath := fn.Pkg().Path()
	switch {
	case pkgPath == "odrips/internal/memostore" &&
		(strings.HasPrefix(fn.Name(), "Load") || fn.Name() == "Claim" || fn.Name() == "AwaitClaimed"):
		// Load* covers Load; Claim and AwaitClaimed are
		// coordination, but a blanked error there turns
		// "compute uncoordinated" into "assume someone else computes" —
		// a hang, not a graceful miss.
		if recv := sig.Recv(); recv != nil && recvNamed(recv.Type(), "odrips/internal/memostore", "Store") {
			return "memostore.Store." + fn.Name(), errIdx
		}
	case pkgPath == "odrips/internal/faults" && fn.Name() == "Parse" && sig.Recv() == nil:
		return "faults.Parse", errIdx
	case strings.HasPrefix(fn.Name(), "ffDecode"):
		return fn.Name(), errIdx
	}
	return "", -1
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}
