package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked unit of source. A directory yields up to three
// units, mirroring how the go tool compiles it: the plain package, the
// package recompiled with its in-package _test.go files, and the external
// _test package. Test units reuse the ASTs of the plain unit, so every file
// is parsed exactly once and directives are collected once per file.
type Package struct {
	Path  string // import path ("odrips/internal/sim")
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// Test reports that this unit exists only under `go test`: either the
	// package rebuilt with in-package test files, or an external _test
	// package. For the former, findings are kept only for _test.go files
	// (the plain unit already covers the rest).
	Test  bool
	XTest bool
}

// Loader parses and type-checks packages of the enclosing module using only
// the standard library: module-internal imports resolve by mapping the import
// path under the module root, and everything else goes through the stdlib
// source importer. No go/packages, no external dependencies.
type Loader struct {
	Root   string // absolute module root (directory of go.mod)
	Module string // module path from go.mod

	fset   *token.FileSet
	std    types.Importer
	deps   map[string]*Package  // memoized plain units, keyed by import path
	parsed map[string]parsedDir // memoized parses, keyed by directory
}

type parsedDir struct {
	plain, test, xtest []*ast.File
}

// NewLoader locates go.mod at or above dir and returns a loader for that
// module.
func NewLoader(dir string) (*Loader, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("analysis: no go.mod at or above %s", dir)
		}
		root = parent
	}
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Root:   root,
		Module: mod,
		fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil),
		deps:   map[string]*Package{},
		parsed: map[string]parsedDir{},
	}, nil
}

// Fset returns the file set positions in loaded packages refer to.
func (l *Loader) Fset() *token.FileSet { return l.fset }

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s", gomod)
}

// Load resolves package patterns to type-checked units. Supported patterns:
// "./..." and "dir/..." for subtrees, plus plain (relative or absolute)
// directories. Directories named testdata, vendor, or starting with "." or
// "_" are skipped by subtree walks but may be named explicitly — that is how
// the analyzer tests lint their fixtures.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs, err := l.resolve(patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		units, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, units...)
	}
	return pkgs, nil
}

// resolve expands patterns to the sorted package directories they name.
func (l *Loader) resolve(patterns []string) ([]string, error) {
	var dirs []string
	seen := map[string]bool{}
	addDir := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			base := l.absDir(rest)
			err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != base && (name == "testdata" || name == "vendor" ||
					strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				if ok, err := hasGoFiles(path); err != nil {
					return err
				} else if ok {
					addDir(path)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		} else {
			addDir(l.absDir(pat))
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func (l *Loader) absDir(p string) string {
	if p == "" || p == "." {
		return l.Root
	}
	if filepath.IsAbs(p) {
		return filepath.Clean(p)
	}
	return filepath.Join(l.Root, p)
}

func hasGoFiles(dir string) (bool, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range ents {
		if !e.IsDir() && goFileName(e.Name()) {
			return true, nil
		}
	}
	return false, nil
}

func goFileName(name string) bool {
	return strings.HasSuffix(name, ".go") &&
		!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_")
}

// importPathFor maps a directory under the module root to its import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.Module, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module %s", dir, l.Root)
	}
	return l.Module + "/" + filepath.ToSlash(rel), nil
}

func (l *Loader) dirFor(importPath string) (string, error) {
	if importPath == l.Module {
		return l.Root, nil
	}
	rest, ok := strings.CutPrefix(importPath, l.Module+"/")
	if !ok {
		return "", fmt.Errorf("analysis: %s is not in module %s", importPath, l.Module)
	}
	return filepath.Join(l.Root, filepath.FromSlash(rest)), nil
}

// parseDir parses every buildable file of dir once, split into the plain
// package files, in-package test files, and external (package foo_test)
// files.
func (l *Loader) parseDir(dir string) (plain, test, xtest []*ast.File, err error) {
	if p, ok := l.parsed[dir]; ok {
		return p.plain, p.test, p.xtest, nil
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, e := range ents {
		if e.IsDir() || !goFileName(e.Name()) {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, nil, err
		}
		switch {
		case !strings.HasSuffix(e.Name(), "_test.go"):
			plain = append(plain, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			xtest = append(xtest, f)
		default:
			test = append(test, f)
		}
	}
	l.parsed[dir] = parsedDir{plain, test, xtest}
	return plain, test, xtest, nil
}

// loadDir builds every unit of one directory.
func (l *Loader) loadDir(dir string) ([]*Package, error) {
	path, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	plain, test, xtest, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	var units []*Package
	if u, err := l.plainUnit(dir); err != nil {
		return nil, err
	} else if u != nil {
		units = append(units, u)
	}
	if len(test) > 0 {
		u, err := l.check(path, dir, append(append([]*ast.File{}, plain...), test...), true, false)
		if err != nil {
			return nil, err
		}
		units = append(units, u)
	}
	if len(xtest) > 0 {
		u, err := l.check(path+"_test", dir, xtest, true, true)
		if err != nil {
			return nil, err
		}
		units = append(units, u)
	}
	return units, nil
}

func (l *Loader) check(path, dir string, files []*ast.File, isTest, isXTest bool) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var errs []error
	conf := types.Config{
		Importer: (*depImporter)(l),
		Error:    func(err error) { errs = append(errs, err) },
	}
	tpkg, _ := conf.Check(path, l.fset, files, info)
	if len(errs) > 0 {
		msgs := make([]string, 0, len(errs))
		for i, e := range errs {
			if i == 8 {
				msgs = append(msgs, fmt.Sprintf("... and %d more", len(errs)-i))
				break
			}
			msgs = append(msgs, e.Error())
		}
		return nil, fmt.Errorf("analysis: type-checking %s:\n\t%s", path, strings.Join(msgs, "\n\t"))
	}
	return &Package{
		Path: path, Dir: dir, Files: files,
		Types: tpkg, Info: info,
		Test: isTest, XTest: isXTest,
	}, nil
}

// plainUnit type-checks (once) the plain, non-test unit of a directory, or
// returns nil if it has no plain files. The memo is shared with import
// resolution, so a package has a single type identity whether it is linted
// directly or pulled in as a dependency.
func (l *Loader) plainUnit(dir string) (*Package, error) {
	path, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	if u, ok := l.deps[path]; ok {
		if u == nil {
			return nil, fmt.Errorf("analysis: import cycle through %s", path)
		}
		return u, nil
	}
	plain, _, _, err := l.parseDir(dir)
	if err != nil || len(plain) == 0 {
		return nil, err
	}
	l.deps[path] = nil // cycle marker
	u, err := l.check(path, dir, plain, false, false)
	if err != nil {
		return nil, err
	}
	l.deps[path] = u
	return u, nil
}

// depImporter resolves imports during type-checking: module-internal paths
// load (and memoize) the plain unit of the target directory; everything else
// defers to the stdlib source importer.
type depImporter Loader

func (d *depImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(d)
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path != l.Module && !strings.HasPrefix(path, l.Module+"/") {
		return l.std.Import(path)
	}
	dir, err := l.dirFor(path)
	if err != nil {
		return nil, err
	}
	u, err := l.plainUnit(dir)
	if err != nil {
		return nil, err
	}
	if u == nil {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	return u.Types, nil
}
