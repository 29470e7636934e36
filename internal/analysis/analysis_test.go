package analysis_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"odrips/internal/analysis"
)

// fixtureRules names the fixture package of each rule under testdata/src.
var fixtureRules = []string{
	"walltime", "fpfloat", "maporder", "mutexcopy", "handle",
	"globalstate", "gotrack", "errdrop", "schemahash", "ffclass",
	"testonly",
	"multirule", // comma-separated directives; exercises several rules at once
}

// fixtures holds the findings of one lint run over every fixture package,
// keyed by package name. Each run loads the whole module, the testonly
// rule's reference set, so the tests share one.
var fixtures struct {
	once     sync.Once
	findings map[string][]analysis.Finding
	err      error
}

// lintFixture returns the full suite's findings (directives applied) for
// one testdata package.
func lintFixture(t *testing.T, name string) []analysis.Finding {
	t.Helper()
	fixtures.once.Do(func() {
		// Patterns resolve against the module root, so name the fixtures
		// by absolute path.
		var dirs []string
		for _, n := range append([]string{"directive"}, fixtureRules...) {
			dir, err := filepath.Abs(filepath.Join("testdata", "src", n))
			if err != nil {
				fixtures.err = err
				return
			}
			dirs = append(dirs, dir)
		}
		var all []analysis.Finding
		all, fixtures.err = analysis.Run(".", dirs)
		fixtures.findings = map[string][]analysis.Finding{}
		for _, f := range all {
			pkg := filepath.Base(filepath.Dir(f.Pos.Filename))
			fixtures.findings[pkg] = append(fixtures.findings[pkg], f)
		}
	})
	if fixtures.err != nil {
		t.Fatalf("linting the fixtures: %v", fixtures.err)
	}
	return fixtures.findings[name]
}

var wantRe = regexp.MustCompile(`//\s*want\s+([a-z ]+?)\s*$`)

// parseWant scans a fixture directory for `// want <rule> [<rule>...]`
// line markers.
func parseWant(t *testing.T, name string) map[string][]string {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{}
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			key := fmt.Sprintf("%s:%d", e.Name(), i+1)
			rules := strings.Fields(m[1])
			sort.Strings(rules)
			want[key] = rules
		}
	}
	if len(want) == 0 {
		t.Fatalf("fixture %s has no // want markers", name)
	}
	return want
}

// TestFixtures checks, for every rule, that the must-flag lines are flagged,
// the must-allow lines (clean idioms and //odrips:allow escapes) are not,
// and nothing else fires.
func TestFixtures(t *testing.T) {
	for _, rule := range fixtureRules {
		t.Run(rule, func(t *testing.T) {
			want := parseWant(t, rule)
			got := map[string][]string{}
			for _, f := range lintFixture(t, rule) {
				key := fmt.Sprintf("%s:%d", filepath.Base(f.Pos.Filename), f.Pos.Line)
				got[key] = append(got[key], f.Rule)
			}
			for key := range got {
				sort.Strings(got[key])
			}
			for key, rules := range want {
				if strings.Join(got[key], " ") != strings.Join(rules, " ") {
					t.Errorf("%s: got findings [%s], want [%s]",
						key, strings.Join(got[key], " "), strings.Join(rules, " "))
				}
			}
			for key, rules := range got {
				if _, ok := want[key]; !ok {
					t.Errorf("%s: unexpected finding(s) [%s]", key, strings.Join(rules, " "))
				}
			}
		})
	}
}

// TestMustFlagFixturesFailTheBuild pins the acceptance contract: linting a
// must-flag fixture yields findings (the driver exits nonzero on those), and
// each finding renders in file:line: [rule] form.
func TestMustFlagFixturesFailTheBuild(t *testing.T) {
	findings := lintFixture(t, "walltime")
	if len(findings) == 0 {
		t.Fatal("walltime fixture produced no findings; odrips-vet would exit 0 on broken code")
	}
	form := regexp.MustCompile(`^.+\.go:\d+: \[[a-z]+\] .+`)
	for _, f := range findings {
		if !form.MatchString(f.String()) {
			t.Errorf("finding %q does not match file:line: [rule] message", f.String())
		}
	}
}

// TestDirectiveFindings covers the audit of the allow mechanism itself:
// malformed, reason-less, unknown-rule, and unused directives each fire.
func TestDirectiveFindings(t *testing.T) {
	findings := lintFixture(t, "directive")
	var msgs []string
	for _, f := range findings {
		if f.Rule != "directive" {
			t.Errorf("unexpected rule %q: %s", f.Rule, f)
		}
		msgs = append(msgs, f.Message)
	}
	all := strings.Join(msgs, "\n")
	for _, wantSub := range []string{
		"names no rule",
		"has no reason",
		"unknown rule \"nosuchrule\"",
		"suppresses nothing",
	} {
		if !strings.Contains(all, wantSub) {
			t.Errorf("no directive finding mentions %q in:\n%s", wantSub, all)
		}
	}
	if len(findings) != 4 {
		t.Errorf("got %d directive findings, want 4:\n%s", len(findings), all)
	}
}

// TestRepoIsClean is `make lint` as a test: the real tree (fixtures
// excluded by the testdata walk rule) must produce zero findings, so any
// future violation fails the ordinary test tier too, not only CI's lint
// step.
func TestRepoIsClean(t *testing.T) {
	findings, err := analysis.Run(".", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestTestonlySameForAnyPattern: the testonly rule takes its callers from
// the whole module whatever packages odrips-vet is given, so linting one
// package reports what ./... reports for it. Were the callers only the
// named packages, linting internal/gpio alone would flag every gpio name
// that only other packages call. The fixture keeps the compared findings
// from being empty.
func TestTestonlySameForAnyPattern(t *testing.T) {
	fixture, err := filepath.Abs(filepath.Join("testdata", "src", "testonly"))
	if err != nil {
		t.Fatal(err)
	}
	gpio, err := filepath.Abs(filepath.Join("..", "gpio"))
	if err != nil {
		t.Fatal(err)
	}
	testonly := func(patterns ...string) []string {
		findings, err := analysis.Run(".", patterns)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, f := range findings {
			if dir := filepath.Dir(f.Pos.Filename); f.Rule == "testonly" && (dir == fixture || dir == gpio) {
				out = append(out, f.String())
			}
		}
		return out
	}
	alone := testonly("./internal/gpio", fixture)
	whole := testonly("./...", fixture)
	if len(whole) == 0 {
		t.Fatal("the testonly fixture produced no findings")
	}
	if strings.Join(alone, "\n") != strings.Join(whole, "\n") {
		t.Errorf("linting internal/gpio alone reports\n%s\nbut ./... reports\n%s",
			strings.Join(alone, "\n"), strings.Join(whole, "\n"))
	}
}

// TestLoaderUnits sanity-checks the dependency-free loader: a directory
// with plain, in-package test, and external test files yields the right
// units, and module-internal imports resolve to a single type identity.
func TestLoaderUnits(t *testing.T) {
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	if loader.Module != "odrips" {
		t.Fatalf("module = %q, want odrips", loader.Module)
	}
	pkgs, err := loader.Load("internal/mee")
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.Path)
	}
	// internal/mee has plain files, in-package tests, and an external
	// example_test package.
	joined := strings.Join(paths, " ")
	if !strings.Contains(joined, "odrips/internal/mee") {
		t.Fatalf("loaded units %v missing odrips/internal/mee", paths)
	}
	for _, p := range pkgs {
		if p.Types == nil || p.Info == nil || len(p.Files) == 0 {
			t.Errorf("unit %s (test=%v xtest=%v) incompletely loaded", p.Path, p.Test, p.XTest)
		}
	}
}

// TestGlobalStateAllowRoster pins the repo's //odrips:allow globalstate
// directives to an explicit roster. The rule keeps loose package-level
// state out; the allows are the audited composition roots — a new one
// must be added here deliberately, with its reason reviewed, not slipped
// in by copying the directive.
func TestGlobalStateAllowRoster(t *testing.T) {
	want := map[string]bool{
		"internal/experiments/runtime.go": true, // the facade's default runtime, rebuilt per default store
		"internal/memostore/memostore.go": true, // default persistent store + build fingerprint
	}
	got := map[string]bool{}
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" || d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "//odrips:allow globalstate") {
				rel, err := filepath.Rel(root, path)
				if err != nil {
					return err
				}
				got[filepath.ToSlash(rel)] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for path := range got {
		if !want[path] {
			t.Errorf("unaudited globalstate allow in %s: add it to the roster with a reviewed reason", path)
		}
	}
	for path := range want {
		if !got[path] {
			t.Errorf("roster entry %s has no globalstate allow anymore; prune it", path)
		}
	}
}
