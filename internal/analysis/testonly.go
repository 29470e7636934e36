package analysis

import (
	"errors"
	"go/ast"
	"go/types"
	"io/fs"
	"path/filepath"
	"strings"
)

// testonlyAnalyzer flags an exported func, method, type or package-level
// var of a library package under internal/ whose every reference, if any,
// sits in a _test.go file: code the program carries only for its tests,
// and a path those tests check that the program never runs.
//
// Callers are the plain files of the whole module plus the benchmark
// harness's in _perfbench, whatever packages are linted, so linting one
// package reports what ./... reports for it. A use of a generic
// instantiation counts for its origin; a declaration naming itself
// (recursion, a method's receiver) is no caller. Constants, struct fields
// and methods that satisfy an interface are out of scope.
var testonlyAnalyzer = &Analyzer{
	Name: "testonly",
	Doc:  "exported names in internal/* need a reference outside _test.go files",
	Run:  runTestonly,
}

func runTestonly(pass *Pass) {
	if pass.Test || pass.Types.Name() == "main" || !strings.HasPrefix(pass.Path, "odrips/internal/") {
		return
	}
	check := func(obj types.Object, kind, name string) {
		if obj.Exported() && !pass.refs.used[obj] {
			pass.Reportf(obj.Pos(),
				"exported %s %s has no reference outside _test.go files; delete it, or move it into a _test.go file if only tests need it",
				kind, name)
		}
	}
	scope := pass.Types.Scope()
	for _, name := range scope.Names() {
		switch obj := scope.Lookup(name).(type) {
		case *types.Func:
			check(obj, "func", name)
		case *types.Var:
			check(obj, "var", name)
		case *types.TypeName:
			check(obj, "type", name)
			if named, ok := obj.Type().(*types.Named); ok && !obj.IsAlias() {
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); !pass.refs.satisfiesInterface(named, m.Name()) {
						check(m, "method", name+"."+m.Name())
					}
				}
			}
		}
	}
}

// moduleRefs is what the testonly rule knows of the whole module: every
// object a plain file refers to, and the interfaces a method may satisfy,
// by method name.
type moduleRefs struct {
	used   map[types.Object]bool
	ifaces map[string][]*types.Interface
}

// references builds the reference set from the plain units of ./..., the
// harness's plain files, and the plain units among linted (so a named
// fixture package calls itself).
func (l *Loader) references(linted []*Package) (*moduleRefs, error) {
	dirs, err := l.resolve([]string{"./..."})
	if err != nil {
		return nil, err
	}
	var units []*Package
	for _, dir := range append(dirs, filepath.Join(l.Root, "_perfbench")) {
		u, err := l.plainUnit(dir)
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
		if u != nil {
			units = append(units, u)
		}
	}
	// A unit met twice is recorded twice, to the same effect.
	for _, u := range linted {
		if !u.Test {
			units = append(units, u)
		}
	}

	r := &moduleRefs{used: map[types.Object]bool{}, ifaces: map[string][]*types.Interface{}}
	known := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && !known[it] {
			known[it] = true
			for i := 0; i < it.NumMethods(); i++ {
				r.ifaces[it.Method(i).Name()] = append(r.ifaces[it.Method(i).Name()], it)
			}
		}
	}
	// Every exported interface of every package the module imports, error,
	// and every interface the module spells out, named or anonymous (a type
	// assertion to interface{ Flush() error }).
	walked := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if walked[p] {
			return
		}
		walked[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
				addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	addIface(errorType)
	for _, u := range units {
		walk(u.Types)
		for _, tv := range u.Info.Types {
			if tv.IsType() {
				addIface(tv.Type)
			}
		}
		for _, f := range u.Files {
			for _, decl := range f.Decls {
				r.addUses(u.Info, decl)
			}
		}
	}
	return r, nil
}

// addUses records every object node refers to, the origin for a generic
// instantiation, except what node itself declares: a func, the names of a
// type or var spec, a method's receiver base type.
func (r *moduleRefs) addUses(info *types.Info, node ast.Node) {
	self := map[types.Object]bool{}
	switch d := node.(type) {
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			r.addUses(info, spec)
		}
		return
	case *ast.FuncDecl:
		if fn, ok := info.Defs[d.Name].(*types.Func); ok {
			self[fn] = true
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				self[namedOf(recv.Type()).Obj()] = true
			}
		}
	case *ast.TypeSpec:
		self[info.Defs[d.Name]] = true
	case *ast.ValueSpec:
		for _, name := range d.Names {
			self[info.Defs[name]] = true
		}
	}
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			obj := info.Uses[id]
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			if obj != nil && !self[obj] {
				r.used[obj] = true
			}
		}
		return true
	})
}

// errorType is the predeclared error interface.
var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// satisfiesInterface reports whether method name of recv may be reached
// through an interface: recv or *recv implements a known interface that
// has a method of that name. Implements is undefined for an uninstantiated
// generic type, so for one of those the name alone decides.
func (r *moduleRefs) satisfiesInterface(recv *types.Named, name string) bool {
	ifaces := r.ifaces[name]
	switch name {
	case "Unwrap", "Is", "As":
		// errors.Unwrap, Is and As find these on an error through
		// anonymous interfaces no named type declares.
		ifaces = append(ifaces[:len(ifaces):len(ifaces)], errorType)
	}
	for _, it := range ifaces {
		if recv.TypeParams().Len() > 0 || types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
			return true
		}
	}
	return false
}
