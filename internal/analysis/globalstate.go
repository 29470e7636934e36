package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// globalstateAnalyzer bans package-level mutable process state in the
// simulation packages (internal/*). The fleet-server arc (ROADMAP item 1)
// shards millions of simulated devices over shared concurrent memo stores;
// any state reachable without going through an owning struct is state that
// arc can corrupt invisibly. A package-level var is flagged when
//
//   - its type contains a sync primitive (Mutex, WaitGroup, Once, Map,
//     ...), a sync/atomic type, or a channel — mutable-by-design process
//     state, however it is accessed — or
//   - any function in the package assigns to it (directly or through an
//     index/field/dereference chain), i.e. it is demonstrably mutated at
//     runtime.
//
// Read-only seeded values pass: name tables ([...]string), precomputed
// constants (big.Int products, canonicalization defaults), and the
// registered analyzers of this package are all initialized at package
// level and never written again. State that is genuinely process-scoped —
// composition-root defaults set once by flag/env wiring — must be
// gathered behind a single owning struct and carry an audited
// //odrips:allow globalstate directive; everything else belongs in an
// instance plumbed from whoever owns its lifetime (the fleet engine's
// memo plane, passed to each job by its caller, is the canonical fix).
//
// Known hole, accepted: mutation through an alias (`p := &global` followed
// by `p.x = ...`) or inside a method call is invisible to the write check;
// the type check catches the sync-bearing cases that matter, and the rule
// is a structural gate, not a proof.
var globalstateAnalyzer = &Analyzer{
	Name: "globalstate",
	Doc:  "forbid package-level mutable vars in internal/*; process state lives behind owning structs",
	Run:  runGlobalstate,
}

func runGlobalstate(pass *Pass) {
	if !strings.HasPrefix(pass.Path, "odrips/internal/") {
		return
	}
	// Collect package-level var objects with their declaration sites.
	type pkgVar struct {
		id  *ast.Ident
		obj types.Object
	}
	var vars []pkgVar
	byObj := map[types.Object]*pkgVar{}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			// Test files declare scoped helpers (golden -update flags, the
			// fingerprint manifest maps); the invariant protects the
			// production packages.
			continue
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok.String() != "var" {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if name.Name == "_" {
						continue // compile-time assertions
					}
					obj := pass.Info.Defs[name]
					if obj == nil {
						continue
					}
					vars = append(vars, pkgVar{id: name, obj: obj})
					byObj[obj] = &vars[len(vars)-1]
				}
			}
		}
	}
	if len(vars) == 0 {
		return
	}

	// Type check: inherently shared-mutable types.
	for _, v := range vars {
		if kind := processStateIn(v.obj.Type()); kind != "" {
			pass.Reportf(v.id.Pos(),
				"package-level var %s holds process-wide mutable state (%s); own it in a struct plumbed from the composition root, or justify it with //odrips:allow globalstate",
				v.id.Name, kind)
			delete(byObj, v.obj) // one finding per var
		}
	}

	// Write check: assignments targeting a remaining package-level var
	// from inside any function body.
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				var targets []ast.Expr
				switch n := n.(type) {
				case *ast.AssignStmt:
					targets = n.Lhs
				case *ast.IncDecStmt:
					targets = []ast.Expr{n.X}
				default:
					return true
				}
				for _, lhs := range targets {
					id := rootIdent(lhs)
					if id == nil {
						continue
					}
					obj := pass.Info.Uses[id]
					v, ok := byObj[obj]
					if !ok {
						continue
					}
					pass.Reportf(v.id.Pos(),
						"package-level var %s is mutated at runtime (write in %s); move it into a struct owned by whoever created it",
						v.id.Name, fd.Name.Name)
					delete(byObj, obj)
				}
				return true
			})
		}
	}
}

// rootIdent unwraps selector/index/star/paren chains to the base
// identifier of an assignment target (x, x.f, x[i], *x, ...).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch t := e.(type) {
		case *ast.Ident:
			return t
		case *ast.SelectorExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		default:
			return nil
		}
	}
}

// processStateIn reports the first shared-mutable type found inside t
// ("sync.Mutex", "atomic.Int32", "chan"), or "".
func processStateIn(t types.Type) string {
	return processStateIn1(t, map[types.Type]bool{})
}

func processStateIn1(t types.Type, seen map[types.Type]bool) string {
	if seen[t] {
		return ""
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		obj := t.Obj()
		if obj.Pkg() != nil {
			switch obj.Pkg().Path() {
			case "sync":
				if syncLockTypes[obj.Name()] {
					return "sync." + obj.Name()
				}
			case "sync/atomic":
				return "atomic." + obj.Name()
			}
		}
		return processStateIn1(t.Underlying(), seen)
	case *types.Chan:
		return "chan"
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if kind := processStateIn1(t.Field(i).Type(), seen); kind != "" {
				return kind
			}
		}
	case *types.Array:
		return processStateIn1(t.Elem(), seen)
	case *types.Pointer:
		// A pointer-typed var itself is only mutable if reassigned (the
		// write check) — the pointee is the pointee's owner's problem —
		// but atomic.Pointer is caught above as a named atomic type.
	}
	return ""
}
