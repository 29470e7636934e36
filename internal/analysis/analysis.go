// Package analysis implements odrips-vet, the repository's determinism and
// units lint suite (run via `make lint` or `go run ./cmd/odrips-vet ./...`).
//
// The simulator's headline guarantees — bit-exact fixed-point timekeeping
// (the m=10/f=21 Step of §4.1.3) and byte-identical runs at any sweep worker
// count — are contracts that ordinary code review cannot police forever.
// This package turns them into build failures. It is deliberately
// dependency-free: packages are loaded with go/parser + go/types through a
// small module-aware loader (load.go), not golang.org/x/tools, so the module
// keeps a zero-entry go.mod.
//
// Rules:
//
//	walltime  - internal/* must not read wall-clock time or the global
//	            math/rand state; only the sim.Scheduler clock and seeded
//	            rand.New(rand.NewSource(...)) generators are reproducible.
//	fpfloat   - fixedpoint Q.Float is diagnostics-only; its results
//	            may flow to internal/report, cmd/*, _test.go files and
//	            fmt/log call sites, never into simulation state.
//	maporder  - a range over a map whose body appends, sends, schedules a
//	            sim event, or writes output is nondeterministically ordered
//	            unless the collected slice is sorted afterwards.
//	mutexcopy - structs holding sync.Mutex/WaitGroup/... must not be
//	            copied by value.
//	handle    - sim.Event handles must not be stored in maps or slices,
//	            where they outlive Cancel and go stale silently.
//	globalstate - internal/* packages must not hold loose package-level
//	            mutable state; process-scoped state lives behind a single
//	            owning struct with an audited allow.
//	gotrack   - every go statement joins through a WaitGroup.Done in its
//	            body or carries an allow; goroutines must not launch inside
//	            a range over a map.
//	errdrop   - errors from fail-safe load paths (memostore Load*,
//	            faults.Parse, ffDecode*) must be handled, never blanked
//	            with _.
//	schemahash - string constants marked //odrips:schema must equal the
//	            structural hash of the named types they pin, so codec-type
//	            changes force a version bump.
//	ffclass   - every field of the structs registered in ffManifestTypes
//	            is classified in ffFingerprinted or ffExcluded (the static
//	            twin of TestFingerprintManifestExhaustive).
//	testonly  - an exported func, method, type or var of an internal/
//	            library package needs a reference outside _test.go files,
//	            from any plain file of the module, or of _perfbench until
//	            the harness moves onto runtimes (ROADMAP item 1).
//
// Intentional exceptions are annotated in source with a line directive
//
//	//odrips:allow <rule>[,<rule>...] <reason>
//
// which suppresses findings of the named rules on its own line and on the
// line directly below. The reason is mandatory and unused or malformed
// directives are themselves findings (rule "directive") — per rule, so a
// two-rule directive where only one rule fires still reports the dead
// half — keeping the exception list audited.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
	"sync"
)

// Finding is one rule violation.
type Finding struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the canonical file:line: [rule] message form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Message)
}

// An Analyzer is one lint rule run over every loaded unit.
type Analyzer struct {
	Name string // rule name as printed in findings and used by directives
	Doc  string
	Run  func(*Pass)
}

// Pass carries one unit through one analyzer.
type Pass struct {
	*Package
	Fset *token.FileSet

	analyzer *Analyzer
	found    *[]Finding
	refs     *moduleRefs
}

// Reportf records a finding at pos under the pass's rule.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.ReportRulef(p.analyzer.Name, pos, format, args...)
}

// ReportRulef records a finding under an explicit rule name, for analyzers
// that own more than one rule (mutexcopy/handle).
func (p *Pass) ReportRulef(rule string, pos token.Pos, format string, args ...any) {
	*p.found = append(*p.found, Finding{
		Pos:     p.Fset.Position(pos),
		Rule:    rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// IsTestFile reports whether the file containing pos is a _test.go file.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// Analyzers returns the full suite in execution order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		walltimeAnalyzer, fpfloatAnalyzer, maporderAnalyzer, locksAnalyzer,
		globalstateAnalyzer, gotrackAnalyzer, errdropAnalyzer,
		schemahashAnalyzer, ffclassAnalyzer, testonlyAnalyzer,
	}
}

// Rules returns every rule name an //odrips:allow directive may name.
func Rules() []string {
	return []string{
		"walltime", "fpfloat", "maporder", "mutexcopy", "handle",
		"globalstate", "gotrack", "errdrop", "schemahash", "ffclass",
		"testonly",
	}
}

// Run loads the patterns relative to the module containing dir, runs the
// whole suite, applies //odrips:allow directives, and returns the surviving
// findings sorted by position. A non-nil error means the tree could not be
// loaded (parse or type error), not that findings exist.
func Run(dir string, patterns []string) ([]Finding, error) {
	loader, err := NewLoader(dir)
	if err != nil {
		return nil, err
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		return nil, err
	}
	refs, err := loader.references(pkgs)
	if err != nil {
		return nil, err
	}
	return runPackages(loader.Fset(), pkgs, refs), nil
}

// runPackages runs the suite over already-loaded units. Units are
// independent once loaded (type info and ASTs are read-only, FileSet
// position lookups are internally locked), so the analyzer phase fans out
// one goroutine per unit into an indexed slot; output order comes from the
// final merge and sort, never from scheduling, so findings are
// byte-identical at any parallelism.
func runPackages(fset *token.FileSet, pkgs []*Package, refs *moduleRefs) []Finding {
	units := make([][]Finding, len(pkgs))
	var wg sync.WaitGroup
	wg.Add(len(pkgs))
	for i := range pkgs {
		go func() {
			defer wg.Done()
			units[i] = lintUnit(fset, pkgs[i], refs)
		}()
	}
	wg.Wait()

	var raw []Finding
	dirs := map[string][]*directive{} // filename -> directives, parsed once
	for i, pkg := range pkgs {
		raw = append(raw, units[i]...)
		for _, f := range pkg.Files {
			name := fset.Position(f.Pos()).Filename
			if _, ok := dirs[name]; !ok {
				dirs[name] = collectDirectives(fset, f, &raw)
			}
		}
	}
	findings := applyDirectives(raw, dirs)
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Rule < b.Rule
	})
	return findings
}

// lintUnit runs every analyzer over one unit and returns its raw findings.
func lintUnit(fset *token.FileSet, pkg *Package, refs *moduleRefs) []Finding {
	var unit []Finding
	for _, a := range Analyzers() {
		pass := &Pass{Package: pkg, Fset: fset, analyzer: a, found: &unit, refs: refs}
		a.Run(pass)
	}
	// The in-package test unit re-checks the plain files alongside the
	// _test.go files; keep only the test-file findings so the plain
	// unit's are not duplicated.
	if pkg.Test && !pkg.XTest {
		kept := unit[:0]
		for _, f := range unit {
			if strings.HasSuffix(f.Pos.Filename, "_test.go") {
				kept = append(kept, f)
			}
		}
		unit = kept
	}
	return unit
}

// directive is one parsed //odrips:allow comment, exploded to one entry
// per named rule: `//odrips:allow maporder,walltime reason` yields two
// entries sharing a position, so suppression and unused detection stay
// per-rule.
type directive struct {
	pos  token.Position
	rule string
	used bool
}

const allowPrefix = "//odrips:allow"

// collectDirectives parses every //odrips:allow directive of a file,
// reporting malformed ones (missing rule or reason, unknown rule) as
// findings under the "directive" rule.
func collectDirectives(fset *token.FileSet, f *ast.File, raw *[]Finding) []*directive {
	var out []*directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, allowPrefix)
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			report := func(format string, args ...any) {
				*raw = append(*raw, Finding{Pos: pos, Rule: "directive", Message: fmt.Sprintf(format, args...)})
			}
			if rest != "" && !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "\t") {
				continue // some other odrips:allowX token, not ours
			}
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				report("allow directive names no rule; want %q", allowPrefix+" <rule>[,<rule>...] <reason>")
				continue
			}
			rules := strings.Split(fields[0], ",")
			bad := false
			for _, rule := range rules {
				if rule == "" {
					report("allow directive has an empty rule in %q; want comma-separated rule names", fields[0])
					bad = true
					continue
				}
				if !knownRule(rule) {
					report("allow directive names unknown rule %q (have %s)", rule, strings.Join(Rules(), ", "))
					bad = true
				}
			}
			if bad {
				continue
			}
			if len(fields) == 1 {
				report("allow directive for %q has no reason; exceptions must be justified in-line", fields[0])
				continue
			}
			for _, rule := range rules {
				out = append(out, &directive{pos: pos, rule: rule})
			}
		}
	}
	return out
}

func knownRule(name string) bool {
	for _, r := range Rules() {
		if r == name {
			return true
		}
	}
	return false
}

// applyDirectives drops findings covered by an allow directive (same file,
// same rule, on the directive's line or the line directly below it) and
// reports directives that suppressed nothing.
func applyDirectives(raw []Finding, dirs map[string][]*directive) []Finding {
	var out []Finding
	for _, f := range raw {
		suppressed := false
		for _, d := range dirs[f.Pos.Filename] {
			if d.rule == f.Rule && (d.pos.Line == f.Pos.Line || d.pos.Line == f.Pos.Line-1) {
				d.used = true
				suppressed = true
			}
		}
		if !suppressed {
			out = append(out, f)
		}
	}
	files := make([]string, 0, len(dirs))
	for name := range dirs {
		files = append(files, name)
	}
	sort.Strings(files) // deterministic unused-directive order (maporder's own rule)
	for _, name := range files {
		for _, d := range dirs[name] {
			if !d.used {
				out = append(out, Finding{
					Pos:     d.pos,
					Rule:    "directive",
					Message: fmt.Sprintf("allow directive for %q suppresses nothing; delete it", d.rule),
				})
			}
		}
	}
	return out
}
