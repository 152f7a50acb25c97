package lint

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// realTreeGraph is the call graph of the real module, loaded the way
// cmd/sdlint loads it.
func realTreeGraph(t *testing.T) *CallGraph {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	pkgs, err := testLoader(t).Load("./...")
	if err != nil {
		t.Fatalf("Load ./...: %v", err)
	}
	return (&Program{Pkgs: pkgs}).CallGraph()
}

// TestProjectTablesNameLiveFunctions pins every FuncID the project tables
// carry to a function the module still declares. The analyzers look
// functions up by these strings, so a row left behind by a deleted or
// renamed function is a rule that silently checks nothing.
func TestProjectTablesNameLiveFunctions(t *testing.T) {
	g := realTreeGraph(t)
	check := func(table, id string) {
		if g.Nodes[id] == nil {
			t.Errorf("%s names %s, which the module does not declare", table, id)
		}
	}
	for id := range CtxBlocking {
		check("CtxBlocking", id)
	}
	for _, id := range HotEntryPoints {
		check("HotEntryPoints", id)
	}
	for _, id := range HotAmortizedStops {
		check("HotAmortizedStops", id)
	}

	// The package tables are import-path patterns: each one must still
	// match a loaded package.
	var paths []string
	for _, n := range g.SortedNodes() {
		paths = append(paths, n.Pkg.Path)
	}
	live := func(table string, patterns ...string) {
		for _, p := range patterns {
			match := pathMatcher(p)
			found := false
			for _, path := range paths {
				found = found || match(path)
			}
			if !found {
				t.Errorf("%s names %s, which matches no package of the module", table, p)
			}
		}
	}
	live("DeterministicPkgs", DeterministicPkgs...)
	live("HotPathPkgs", HotPathPkgs...)
	live("ErrcheckScope", ErrcheckScope...)
	live("ObsPath", ObsPath)
}

// mutant is one seeded bug of the kill-matrix corpus: an edit of real
// tree code aimed at the analyzer its file is named after.
type mutant struct {
	Name        string `json:"name"`
	File        string `json:"file"`
	Anchor      string `json:"anchor"`
	Replacement string `json:"replacement"`
	Bug         string `json:"bug"`
}

// TestMutantAnchors keeps the kill-matrix corpus (testdata/mutants, run
// by scripts/killmatrix.sh) applicable: every anchor occurs exactly once
// in its file, so code that moves fails here instead of silently
// shrinking the corpus. Each analyzer's file holds at least three.
func TestMutantAnchors(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "mutants", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no mutant corpus: %v", err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var ms []mutant
		if err := json.Unmarshal(raw, &ms); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if len(ms) < 3 {
			t.Errorf("%s: %d mutants, want at least 3", f, len(ms))
		}
		for _, m := range ms {
			src, err := os.ReadFile(filepath.Join("..", "..", m.File))
			if err != nil {
				t.Errorf("%s: mutant %s: %v", f, m.Name, err)
				continue
			}
			if n := strings.Count(string(src), m.Anchor); n != 1 {
				t.Errorf("%s: mutant %s: anchor occurs %d times in %s, want exactly once", f, m.Name, n, m.File)
			}
			if m.Anchor == m.Replacement || m.Bug == "" {
				t.Errorf("%s: mutant %s: no edit, or no bug description", f, m.Name)
			}
		}
	}
}

// contextTwinsAllowed are the exported Foo/FooContext pairs that may
// coexist, each with the reason it cannot collapse yet.
var contextTwinsAllowed = map[string]string{
	"(*repro/internal/stream.Pipeline).Step": "bench/ calls Pipeline.Step by name, and a benchmark PR is the only kind that may edit bench/",
}

// TestNoContextTwins keeps the middleware at one spelling per call: an
// exported FooContext under repro/internal/ has no exported context-less
// sibling Foo in the same package or on the same receiver.
func TestNoContextTwins(t *testing.T) {
	g := realTreeGraph(t)
	found := map[string]bool{}
	for _, n := range g.SortedNodes() {
		if n.Fn == nil || !n.Fn.Exported() || !strings.HasPrefix(n.Pkg.Path, "repro/internal/") {
			continue
		}
		twinID, ok := strings.CutSuffix(n.ID, "Context")
		if !ok {
			continue
		}
		twin := g.Nodes[twinID]
		if twin == nil || twin.Fn == nil || !twin.Fn.Exported() {
			continue
		}
		found[twinID] = true
		if _, allowed := contextTwinsAllowed[twinID]; !allowed {
			t.Errorf("%s is a context-less twin of %s: keep the context form only", twinID, n.ID)
		}
	}
	for id, reason := range contextTwinsAllowed {
		if !found[id] {
			t.Errorf("allowlisted twin %s (%s) is gone: drop it from contextTwinsAllowed", id, reason)
		}
	}
}

// testReferencesAllowed are the exported functions under repro/internal/
// that only tests call — oracles and helpers several packages' tests
// share — each with the reason. What their bodies reference, only tests
// reach.
var testReferencesAllowed = map[string]string{
	"repro/internal/fft.Naive":              "reference the FFT tests compare against",
	"repro/internal/mat.NewFromRows":        "helper shared by other packages' tests",
	"repro/internal/mat.Norm0":              "helper shared by other packages' tests",
	"repro/internal/mat.SubVec":             "helper shared by other packages' tests",
	"repro/internal/mat.AddVec":             "helper shared by other packages' tests",
	"(*repro/internal/query.Filter).Source": "FuzzCompile's round-trip property",
	"repro/internal/obs.Disable":            "tests reset the process-wide registry with it",
}

// exportedCallersAllowed are the exported functions under repro/internal/
// that may stay without a non-test caller, each with the reason: API kept
// for a caller to come, whose bodies' references count as uses.
var exportedCallersAllowed = map[string]string{
	"(*repro/internal/netsim.FaultPlan).Down":          "crash-now fault primitive",
	"(*repro/internal/netsim.FaultPlan).Up":            "crash-now fault primitive",
	"(*repro/internal/broker.Broker).PositionsContext": "position-aware gather plans rounds from it",
	"(*repro/internal/broker.Broker).Unregister":       "churn lifecycle: without it recycled IDs cannot rejoin",
	"repro/internal/cs.ChooseKCrossValOp":              "candidate support-size rule",
	"(*repro/internal/stream.Pipeline).LastErr":        "the only failure signal of a background run",
	"(*repro/internal/bus.Client).Dropped":             "drop accounting",
	"(*repro/internal/bus.Subscription).Dropped":       "drop accounting",
}

// TestExportedHaveCallers keeps internal/ free of API that only tests
// reach: every exported function or method declared under repro/internal/
// is referenced from non-test code somewhere in the module, outside its
// own body and outside the bodies of testReferencesAllowed, or is
// allowlisted in one of the two tables. A method whose name an interface
// of the program or the standard library declares counts as used, since
// calls through the interface do not name it. repro/internal/testutil/...
// exists for tests.
func TestExportedHaveCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	pkgs, err := testLoader(t).Load("./...")
	if err != nil {
		t.Fatalf("Load ./...: %v", err)
	}
	ifaceMethods := interfaceMethodNames(pkgs)
	used := map[*types.Func]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				var self *types.Func // the declared function, nil outside one
				if fd, ok := d.(*ast.FuncDecl); ok {
					self, _ = pkg.Info.Defs[fd.Name].(*types.Func)
				}
				if self != nil {
					if _, testOnly := testReferencesAllowed[FuncID(self)]; testOnly {
						continue // what a test-only function references, only tests reach
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					if fn, ok := pkg.Info.Uses[id].(*types.Func); ok && fn.Origin() != self {
						used[fn.Origin()] = true // recursion is not a caller
					}
					return true
				})
			}
		}
	}
	found := map[string]bool{}
	for _, pkg := range pkgs {
		if !strings.HasPrefix(pkg.Path, "repro/internal/") ||
			pkg.Path == "repro/internal/testutil" || strings.HasPrefix(pkg.Path, "repro/internal/testutil/") {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok || !fn.Exported() || used[fn] || (fd.Recv != nil && ifaceMethods[fn.Name()]) {
					continue
				}
				id := FuncID(fn)
				found[id] = true
				_, api := exportedCallersAllowed[id]
				if _, ref := testReferencesAllowed[id]; !api && !ref {
					t.Errorf("%s has no non-test caller: delete it, or allowlist it with a reason", id)
				}
			}
		}
	}
	for table, allowed := range map[string]map[string]string{"exportedCallersAllowed": exportedCallersAllowed, "testReferencesAllowed": testReferencesAllowed} {
		for id, reason := range allowed {
			if !found[id] {
				t.Errorf("allowlisted %s (%s) is gone or has a caller: drop it from %s", id, reason, table)
			}
		}
	}
}

// readmeNamesAllowed are backticked README.md tokens shaped like Go names
// of this module that name no declaration, each with the reason.
var readmeNamesAllowed = map[string]string{
	"bus.scatter.waves": "an obs counter's name, not a Go identifier",
	"BENCH_n":           "placeholder for the numbered benchmark records",
	"Foo":               "placeholder in the Foo/FooContext naming rule",
	"FooContext":        "placeholder in the Foo/FooContext naming rule",
	"GOMAXPROCS":        "the runtime setting, named as an environment variable",
}

// readmeToken matches a backticked name README.md may use for code of
// this module: an exported identifier, or pkg.Name, pkg.Type.Member or
// Type.Member, each with an optional "()" of a call.
var readmeToken = regexp.MustCompile("`([A-Z][A-Za-z0-9_]*|[A-Za-z_][A-Za-z0-9_]*(?:\\.[A-Za-z_][A-Za-z0-9_]*){1,2})(?:\\(\\))?`")

// TestReadmeNamesLiveCode keeps README.md from naming code that is gone.
// A dotted token whose first segment is a package of this module
// resolves to a package-level name, or a method or field of a type, of
// that package (pkg.Type.Member: of the named type); one whose first
// segment is an exported type resolves to a method or field of it.
// Standard-library and file names (fmt.Sprintf, DESIGN.md) match
// neither and are skipped. A bare exported identifier resolves to a
// package-level name, method or field anywhere in the module, or to a
// Test, Benchmark, Fuzz or Example function of its test files.
func TestReadmeNamesLiveCode(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	pkgs, err := testLoader(t).Load("./...")
	if err != nil {
		t.Fatalf("Load ./...: %v", err)
	}
	root := filepath.Join("..", "..")
	readme, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		t.Fatal(err)
	}

	scopes := map[string][]*types.Scope{}       // package name → its scopes
	typeNames := map[string][]*types.TypeName{} // exported type name → its types
	for _, pkg := range pkgs {
		if pkg.Name == "main" {
			continue
		}
		scope := pkg.Types.Scope()
		scopes[pkg.Name] = append(scopes[pkg.Name], scope)
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.Exported() {
				typeNames[name] = append(typeNames[name], tn)
			}
		}
	}
	hasMember := func(tn *types.TypeName, name string) bool {
		obj, _, _ := types.LookupFieldOrMethod(tn.Type(), true, tn.Pkg(), name)
		return obj != nil
	}
	// inScope resolves name in one package: package-level, or a member of
	// one of its types.
	inScope := func(scope *types.Scope, name string) bool {
		if scope.Lookup(name) != nil {
			return true
		}
		for _, n := range scope.Names() {
			if tn, ok := scope.Lookup(n).(*types.TypeName); ok && hasMember(tn, name) {
				return true
			}
		}
		return false
	}
	testFuncs := readTestFuncs(t, root)

	// resolve reports whether tok names live code; skip is true where tok
	// names no package or type of this module at all.
	resolve := func(tok string) (ok, skip bool) {
		segs := strings.Split(tok, ".")
		if len(segs) == 1 {
			for _, ss := range scopes {
				for _, scope := range ss {
					if inScope(scope, tok) {
						return true, false
					}
				}
			}
			return testFuncs[tok], false
		}
		if ss, isPkg := scopes[segs[0]]; isPkg {
			for _, scope := range ss {
				if len(segs) == 2 && inScope(scope, segs[1]) {
					return true, false
				}
				if tn, isType := scope.Lookup(segs[1]).(*types.TypeName); isType && len(segs) == 3 && hasMember(tn, segs[2]) {
					return true, false
				}
			}
			return false, false
		}
		if tns, isType := typeNames[segs[0]]; isType && len(segs) == 2 {
			for _, tn := range tns {
				if hasMember(tn, segs[1]) {
					return true, false
				}
			}
			return false, false
		}
		return false, true
	}

	seen := map[string]bool{}
	for _, m := range readmeToken.FindAllSubmatch(readme, -1) {
		tok := string(m[1])
		if seen[tok] {
			continue
		}
		seen[tok] = true
		ok, skip := resolve(tok)
		_, allowed := readmeNamesAllowed[tok]
		switch {
		case allowed && (ok || skip):
			t.Errorf("README.md names %s, which resolves or is skipped: drop it from readmeNamesAllowed", tok)
		case !ok && !skip && !allowed:
			t.Errorf("README.md names %s, which the module does not declare", tok)
		}
	}
	for tok, reason := range readmeNamesAllowed {
		if !seen[tok] {
			t.Errorf("allowlisted %s (%s) is not in README.md: drop it from readmeNamesAllowed", tok, reason)
		}
	}
}

// readTestFuncs returns the names of the top-level functions declared in
// the module's _test.go files, testdata aside.
func readTestFuncs(t *testing.T, root string) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || (name != "." && name != ".." && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				names[fd.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("reading test files: %v", err)
	}
	return names
}

// TestCSNamesNoDenseMatrix keeps the decoders on one representation of
// the sensing dictionary: non-test code in internal/cs has no value,
// parameter or expression of type mat.Matrix or *mat.Matrix. Every
// least-squares step factors the support's gathered columns straight into
// a mat.IncrementalQR, and a dense basis enters through basis.FromMatrix.
func TestCSNamesNoDenseMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks internal/cs and its imports; skipped in -short")
	}
	pkg, err := testLoader(t).LoadDir(filepath.Join("..", "cs"))
	if err != nil {
		t.Fatalf("load internal/cs: %v", err)
	}
	isMatrix := func(typ types.Type) bool {
		if p, ok := typ.(*types.Pointer); ok {
			typ = p.Elem()
		}
		n, ok := typ.(*types.Named)
		return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "repro/internal/mat" && n.Obj().Name() == "Matrix"
	}
	var where []string
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			found := false
			ast.Inspect(d, func(n ast.Node) bool {
				if e, ok := n.(ast.Expr); ok && isMatrix(pkg.Info.Types[e].Type) {
					found = true
				}
				return !found
			})
			if fd, ok := d.(*ast.FuncDecl); ok && found {
				where = append(where, fd.Name.Name)
			} else if found {
				where = append(where, "a package-level declaration")
			}
		}
	}
	if len(where) > 0 {
		t.Errorf("internal/cs names mat.Matrix in %s: factor the columns into a mat.IncrementalQR instead", strings.Join(where, ", "))
	}
}

// interfaceMethodNames is every method name an interface declares in the
// loaded program (named or literal) or at package level in the standard
// library it imports, plus the errors package's Is/As/Unwrap hooks, which
// errors looks up through interfaces local to its functions.
func interfaceMethodNames(pkgs []*Package) map[string]bool {
	names := map[string]bool{"Is": true, "As": true, "Unwrap": true}
	addIface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				names[it.Method(i).Name()] = true
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var addScope func(p *types.Package)
	addScope = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, n := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(n).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			addScope(imp)
		}
	}
	for _, pkg := range pkgs {
		for _, tv := range pkg.Info.Types {
			if tv.IsType() {
				addIface(tv.Type)
			}
		}
		addScope(pkg.Types)
	}
	return names
}

// optionsHaveSettersAllowed are the option fields that may stay without a
// non-test writer, each with the reason. Keep it at one entry.
var optionsHaveSettersAllowed = map[string]string{
	"repro/internal/fleet.Config.DutyPeriod": "bench/fleetround.go reads it",
}

// TestOptionsHaveSetters keeps internal/ free of configuration nobody
// runs: every exported field of an exported *Config, *Options or *Policy
// struct declared under repro/internal/ is written by non-test code.
func TestOptionsHaveSetters(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	pkgs, err := testLoader(t).Load("./...")
	if err != nil {
		t.Fatalf("Load ./...: %v", err)
	}
	n, findings := optionSetterFindings(pkgs, func(path string) bool {
		return strings.HasPrefix(path, "repro/internal/") &&
			path != "repro/internal/testutil" && !strings.HasPrefix(path, "repro/internal/testutil/")
	}, optionsHaveSettersAllowed)
	t.Logf("%d option fields", n)
	for _, f := range findings {
		t.Error(f)
	}
	if len(optionsHaveSettersAllowed) > 1 {
		t.Errorf("optionsHaveSettersAllowed has %d entries, want at most 1", len(optionsHaveSettersAllowed))
	}
}

// TestOptionSetterRule runs the rule on a fixture: a field assigned from
// another package and one set in its own package's keyed literal pass, a
// field only its own package defaults is flagged, and an allowlist entry
// naming a field that has a writer is reported as stale.
func TestOptionSetterRule(t *testing.T) {
	const p = "repro/internal/lint/testdata/src/options"
	pkgs := []*Package{loadTestdata(t, "options"), loadTestdata(t, filepath.Join("options", "setter"))}
	n, findings := optionSetterFindings(pkgs, func(path string) bool { return path == p },
		map[string]string{p + ".Config.Remote": "stale on purpose"})
	want := []string{
		"allowlisted " + p + ".Config.Remote (stale on purpose) is gone or has a writer: drop it from the allowlist",
		p + ".Config.Defaulted has no non-test writer: make it a constant, or allowlist it with a reason",
	}
	if n != 3 || strings.Join(findings, "\n") != strings.Join(want, "\n") {
		t.Errorf("%d option fields, findings:\n%s\nwant 3 fields, findings:\n%s", n, strings.Join(findings, "\n"), strings.Join(want, "\n"))
	}
}

// optionSetterFindings checks the option fields of the packages declared
// admits. A field is written by a keyed composite literal anywhere in
// pkgs, by an unkeyed one, or by an assignment, an increment or an
// address-of outside its own package; a package's own defaulting
// assignments do not make an option somebody sets. It returns the number
// of option fields checked and one message per unset field that allowed
// does not name, and per allowed entry that names no unset option field.
func optionSetterFindings(pkgs []*Package, declared func(path string) bool, allowed map[string]string) (int, []string) {
	written := map[*types.Var]bool{}
	for _, pkg := range pkgs {
		outside := func(e ast.Expr) {
			sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
			if !ok {
				return
			}
			if s := pkg.Info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				if v := s.Obj().(*types.Var).Origin(); v.Pkg() != pkg.Types {
					written[v] = true
				}
			}
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					t := pkg.Info.Types[n].Type
					if p, ok := t.Underlying().(*types.Pointer); ok {
						t = p.Elem() // an elided &T{…} in a []*T literal
					}
					st, ok := t.Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if v, ok := pkg.Info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
								written[v.Origin()] = true
							}
						} else {
							written[st.Field(i).Origin()] = true
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						outside(lhs)
					}
				case *ast.IncDecStmt:
					outside(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						outside(n.X)
					}
				}
				return true
			})
		}
	}
	total := 0
	unset := map[string]bool{}
	var findings []string
	for _, pkg := range pkgs {
		if !declared(pkg.Path) {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Policy")) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				v := st.Field(i)
				if !v.Exported() {
					continue
				}
				total++
				if written[v] {
					continue
				}
				id := pkg.Path + "." + name + "." + v.Name()
				unset[id] = true
				if _, ok := allowed[id]; !ok {
					findings = append(findings, id+" has no non-test writer: make it a constant, or allowlist it with a reason")
				}
			}
		}
	}
	for id, reason := range allowed {
		if !unset[id] {
			findings = append(findings, "allowlisted "+id+" ("+reason+") is gone or has a writer: drop it from the allowlist")
		}
	}
	sort.Strings(findings)
	return total, findings
}
