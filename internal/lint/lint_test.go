package lint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The golden harness: each package under testdata/src is lint-run with
// one analyzer, and every `// want `+"`regex`"+`` comment in the source
// must be matched by exactly the diagnostics the analyzer reports on
// that line — no extras, no misses.

// testdataScope admits the golden packages into scoped analyzers.
var testdataScope = pathMatcher("repro/internal/lint/testdata/...")

var (
	loaderOnce sync.Once
	testLdr    *Loader
	testLdrErr error
)

// testLoader shares one Loader (and so one type-checked stdlib) across
// all golden tests; the source importer is the expensive part.
func testLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		testLdr, testLdrErr = NewLoader(filepath.Join("..", ".."))
	})
	if testLdrErr != nil {
		t.Fatalf("NewLoader: %v", testLdrErr)
	}
	return testLdr
}

func loadTestdata(t *testing.T, name string) *Package {
	t.Helper()
	pkg, err := testLoader(t).LoadDir(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("load testdata/src/%s: %v", name, err)
	}
	return pkg
}

type wantAnno struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

var wantPatternRe = regexp.MustCompile("`([^`]+)`")

// collectWants extracts the `// want` annotations from a loaded package.
// One comment may carry several backquoted regexes (several diagnostics
// expected on the same line).
func collectWants(t *testing.T, pkg *Package) []*wantAnno {
	t.Helper()
	var wants []*wantAnno
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				body := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(body, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				matches := wantPatternRe.FindAllStringSubmatch(body, -1)
				if len(matches) == 0 {
					t.Fatalf("%s:%d: want comment without a backquoted pattern", pos.Filename, pos.Line)
				}
				for _, m := range matches {
					wants = append(wants, &wantAnno{
						file: pos.Filename,
						line: pos.Line,
						re:   regexp.MustCompile(m[1]),
					})
				}
			}
		}
	}
	return wants
}

// runGolden lints one testdata package with one analyzer and diffs the
// diagnostics of the named checks against the want annotations.
func runGolden(t *testing.T, name string, a *Analyzer, checks ...string) {
	t.Helper()
	pkg := loadTestdata(t, name)
	res := Run([]*Package{pkg}, []*Analyzer{a})

	keep := map[string]bool{}
	for _, c := range checks {
		keep[c] = true
	}
	wants := collectWants(t, pkg)
	for _, d := range res.Diagnostics {
		if !keep[d.Check] {
			continue
		}
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: missing diagnostic matching %q", w.file, w.line, w.re)
		}
	}
}

func TestGoldenNondeterminism(t *testing.T) {
	runGolden(t, "nondet", Nondeterminism(testdataScope), "nondeterminism")
}

// The locks analyzer has three golden packages, one per rule family:
// unlocked accesses in methods (mutexguard), lock order and
// self-deadlock (lockorder), and goroutine-reachable writes with atomic
// mixing (raceguard).
func TestGoldenMutexGuard(t *testing.T) {
	runGolden(t, "mutexguard", Locks(), "locks")
}

func TestGoldenObsHot(t *testing.T) {
	runGolden(t, "obshot", ObsHot(testdataScope, ObsPath), "obshot")
}

func TestGoldenErrCheck(t *testing.T) {
	runGolden(t, "errcheck", ErrCheck(testdataScope), "errcheck")
}

func TestGoldenLockOrder(t *testing.T) {
	runGolden(t, "lockorder", Locks(), "locks")
}

func TestGoldenCtxFlow(t *testing.T) {
	runGolden(t, "ctxflow", CtxFlow("repro/"), "ctxflow")
}

func TestGoldenRaceGuard(t *testing.T) {
	runGolden(t, "raceguard", Locks(), "locks")
}

// TestGoldenSuppressedCounts pins that every project analyzer has at
// least one finding silenced by an audited //lint:ignore in its golden
// package — the suppression path is part of the contract, not a fluke
// of the fixtures.
func TestGoldenSuppressedCounts(t *testing.T) {
	cases := []struct {
		pkg string
		a   *Analyzer
	}{
		{"nondet", Nondeterminism(testdataScope)},
		{"mutexguard", Locks()},
		{"obshot", ObsHot(testdataScope, ObsPath)},
		{"errcheck", ErrCheck(testdataScope)},
		{"lockorder", Locks()},
		{"ctxflow", CtxFlow("repro/")},
		{"raceguard", Locks()},
	}
	covered := map[string]bool{}
	for _, c := range cases {
		covered[c.a.Name] = true
		pkg := loadTestdata(t, c.pkg)
		res := Run([]*Package{pkg}, []*Analyzer{c.a})
		if res.Suppressed == 0 {
			t.Errorf("%s: golden package %s has no suppressed finding; the ignore-directive path is untested", c.a.Name, c.pkg)
		}
	}
	for _, a := range ProjectAnalyzers() {
		if !covered[a.Name] {
			t.Errorf("%s: no golden package pins its suppression path", a.Name)
		}
	}
}

// TestProjectAnalyzerSet pins the analyzer suite sdlint runs: CI and
// check.sh gate on sdlint's exit status alone, so a wiring change that
// dropped an analyzer would otherwise pass silently.
func TestProjectAnalyzerSet(t *testing.T) {
	want := []string{
		"nondeterminism", "locks", "obshot", "errcheck", "ctxflow",
	}
	var got []string
	for _, a := range ProjectAnalyzers() {
		got = append(got, a.Name)
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("ProjectAnalyzers() = %v, want %v", got, want)
	}
}

// TestGoldenIgnoreDemo checks the suppression positions end to end: the
// want annotations in ignoredemo mark exactly the findings a directive
// on the wrong line (or a malformed one) fails to silence.
func TestGoldenIgnoreDemo(t *testing.T) {
	runGolden(t, "ignoredemo", ErrCheck(testdataScope), "errcheck")
}

// TestLoadPatterns pins the "..." expansion the CLI depends on: the
// recursive pattern must find this package but never descend into
// testdata (golden inputs deliberately fail the suite).
func TestLoadPatterns(t *testing.T) {
	pkgs, err := testLoader(t).Load("./internal/lint/...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for _, p := range pkgs {
		if strings.Contains(p.Path, "testdata") {
			t.Errorf("pattern expansion descended into %s", p.Path)
		}
	}
	if len(pkgs) != 1 || pkgs[0].Path != "repro/internal/lint" {
		t.Errorf("Load(./internal/lint/...) = %v, want exactly repro/internal/lint", pkgPaths(pkgs))
	}
}

func pkgPaths(pkgs []*Package) []string {
	out := make([]string, len(pkgs))
	for i, p := range pkgs {
		out[i] = p.Path
	}
	return out
}

// TestZeroPackages pins the contract behind cmd/sdlint's zero-package
// exit status: a run over nothing reports zero packages analyzed.
func TestZeroPackages(t *testing.T) {
	res := Run(nil, ProjectAnalyzers())
	if res.Packages != 0 {
		t.Fatalf("Packages = %d, want 0", res.Packages)
	}
	if len(res.Diagnostics) != 0 {
		t.Fatalf("Diagnostics = %v, want none", res.Diagnostics)
	}
}

// TestProjectTreeClean runs the real analyzer suite over the real tree —
// the same invocation as cmd/sdlint — and demands a clean bill. This is
// the regression test that keeps the repository at zero findings.
func TestProjectTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	l := testLoader(t)
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatalf("Load ./...: %v", err)
	}
	res := Run(pkgs, ProjectAnalyzers())
	if res.Packages == 0 {
		t.Fatal("analyzed 0 packages")
	}
	if len(res.Diagnostics) != 0 {
		var b strings.Builder
		for _, d := range res.Diagnostics {
			fmt.Fprintf(&b, "\n  %s", d)
		}
		t.Errorf("tree is not lint-clean:%s", b.String())
	}
}
