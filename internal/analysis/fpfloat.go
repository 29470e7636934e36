package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// fpfloatAnalyzer enforces the "diagnostics only" contract on
// fixedpoint.Q.Float: the 1 ppb Step arithmetic of §4.1.3 is exact in fixed
// point, and a float64 rendering of it must never flow back into simulation
// state where rounding could contaminate energy or timer results. Float
// calls are allowed only in internal/report, cmd/*, _test.go files, and
// directly inside fmt/log formatting call sites.
var fpfloatAnalyzer = &Analyzer{
	Name: "fpfloat",
	Doc:  "restrict fixedpoint Float() results to reporting, tests and fmt/log call sites",
	Run:  runFpfloat,
}

func runFpfloat(pass *Pass) {
	if pass.Path == "odrips/internal/fixedpoint" ||
		strings.HasPrefix(pass.Path, "odrips/internal/report") ||
		strings.HasPrefix(pass.Path, "odrips/cmd/") {
		return
	}
	for _, f := range pass.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Name() != "Float" ||
				fn.Pkg() == nil || fn.Pkg().Path() != "odrips/internal/fixedpoint" {
				return true
			}
			if pass.IsTestFile(call.Pos()) || insideFormatting(pass, stack[:len(stack)-1]) {
				return true
			}
			pass.Reportf(call.Pos(),
				"fixedpoint.Q.Float() is diagnostics-only; keep simulation math in fixed point (allowed in internal/report, cmd/*, _test.go and fmt/log call sites)")
			return true
		})
	}
}

// insideFormatting reports whether the node whose ancestor stack is given
// sits inside a fmt, log, or log/slog call — a Float() feeding a Printf is
// the blessed diagnostics path.
func insideFormatting(pass *Pass, ancestors []ast.Node) bool {
	for _, n := range ancestors {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			continue
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			continue
		}
		if fn, ok := pass.Info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil {
			switch fn.Pkg().Path() {
			case "fmt", "log", "log/slog":
				return true
			}
		}
	}
	return false
}
