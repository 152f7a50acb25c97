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

func TestGoldenMutexGuard(t *testing.T) {
	runGolden(t, "mutexguard", MutexGuard(), "mutexguard")
}

func TestGoldenObsHot(t *testing.T) {
	runGolden(t, "obshot", ObsHot(testdataScope, ObsPath), "obshot")
}

func TestGoldenErrCheck(t *testing.T) {
	runGolden(t, "errcheck", ErrCheck(testdataScope), "errcheck")
}

func TestGoldenPrintBan(t *testing.T) {
	runGolden(t, "printban", PrintBan(pathMatcher()), "printban")
}

func TestGoldenLockOrder(t *testing.T) {
	runGolden(t, "lockorder", Lockorder(), "lockorder")
}

func TestGoldenGoroLeak(t *testing.T) {
	runGolden(t, "goroleak", GoroLeak(), "goroleak")
}

func TestGoldenCtxFlow(t *testing.T) {
	blocking := map[string]string{
		"repro/internal/lint/testdata/src/ctxflow.Request": "RequestContext",
	}
	runGolden(t, "ctxflow", CtxFlow(blocking, "repro/"), "ctxflow")
}

func TestGoldenRaceGuard(t *testing.T) {
	runGolden(t, "raceguard", RaceGuard(), "raceguard")
}

// testAliasPubSinks configures the fixture's own publish function as a
// sink (argument 0), the way project.go lists the middleware's.
func testAliasPubSinks() map[string]int {
	return map[string]int{
		"repro/internal/lint/testdata/src/aliaspub.publish": 0,
	}
}

func TestGoldenAliasPub(t *testing.T) {
	runGolden(t, "aliaspub", AliasPub(testAliasPubSinks(), "repro/"), "aliaspub")
}

// testHotAllocEntries: every per-event entry point of the fixture, plus
// the amortized boundary, mirroring the HotEntryPoints/HotAmortizedStops
// pair in project.go.
func testHotAllocEntries() (entries, stops []string) {
	const p = "repro/internal/lint/testdata/src/hotalloc."
	return []string{
			p + "Serve", p + "Label", p + "Concat", p + "LookupJoined",
			p + "Box", p + "Closures", p + "Pointers", p + "Fill",
			p + "Validated", p + "SpawnOff", p + "Suppressed",
		}, []string{
			p + "compile",
		}
}

func TestGoldenHotAlloc(t *testing.T) {
	entries, stops := testHotAllocEntries()
	runGolden(t, "hotalloc", HotAlloc(entries, stops), "hotalloc")
}

// testTopicConfig wires the fixture's miniature bus API as protocol
// roots, mirroring ProjectTopicConfig's shape for the real middleware.
func testTopicConfig() *TopicConfig {
	const p = "repro/internal/lint/testdata/src/topicflow"
	return &TopicConfig{
		Roots: map[string]TopicRoot{
			"(*" + p + ".Bus).Publish":   {Role: TopicPublish, TopicArg: 0, BodyArg: -1, OutArg: -1, HandlerArg: -1},
			"(*" + p + ".Bus).Subscribe": {Role: TopicSubscribe, TopicArg: 0, BodyArg: -1, OutArg: -1, HandlerArg: -1},
			p + ".Request":               {Role: TopicRequest, TopicArg: 1, BodyArg: 2, OutArg: 3, HandlerArg: -1},
			p + ".Respond":               {Role: TopicRespond, TopicArg: 1, BodyArg: -1, OutArg: -1, HandlerArg: 2},
			p + ".RespondTyped":          {Role: TopicRespond, TopicArg: 1, BodyArg: -1, OutArg: -1, HandlerArg: 2},
		},
	}
}

func TestGoldenTopicFlow(t *testing.T) {
	runGolden(t, "topicflow", TopicFlow(testTopicConfig()), "topicflow")
}

func TestGoldenChanFlow(t *testing.T) {
	runGolden(t, "chanflow", ChanFlow(), "chanflow")
}

// TestGoldenSuppressedCounts pins that each concurrency analyzer has at
// least one finding silenced by an audited //lint:ignore in its golden
// package — the suppression path is part of the contract, not a fluke
// of the fixtures.
func TestGoldenSuppressedCounts(t *testing.T) {
	hotEntries, hotStops := testHotAllocEntries()
	cases := []struct {
		name string
		a    *Analyzer
	}{
		{"lockorder", Lockorder()},
		{"goroleak", GoroLeak()},
		{"ctxflow", CtxFlow(map[string]string{
			"repro/internal/lint/testdata/src/ctxflow.Request": "RequestContext",
		}, "repro/")},
		{"raceguard", RaceGuard()},
		{"aliaspub", AliasPub(testAliasPubSinks(), "repro/")},
		{"hotalloc", HotAlloc(hotEntries, hotStops)},
		{"topicflow", TopicFlow(testTopicConfig())},
		{"chanflow", ChanFlow()},
	}
	for _, c := range cases {
		pkg := loadTestdata(t, c.name)
		res := Run([]*Package{pkg}, []*Analyzer{c.a})
		if res.Suppressed == 0 {
			t.Errorf("%s: golden package has no suppressed finding; the ignore-directive path is untested", c.name)
		}
	}
}

// TestGoldenIgnoreDemo checks the suppression positions end to end: the
// want annotations in ignoredemo mark exactly the findings a directive
// on the wrong line (or a malformed one) fails to silence.
func TestGoldenIgnoreDemo(t *testing.T) {
	runGolden(t, "ignoredemo", PrintBan(pathMatcher()), "printban")
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

// TestZeroPackages pins the contract behind check.sh's zero-guard: a
// run over nothing reports zero packages analyzed.
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
