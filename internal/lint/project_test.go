package lint

import (
	"go/ast"
	"go/types"
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
	for id := range PublishSinks {
		check("PublishSinks", id)
	}
	for _, id := range HotEntryPoints {
		check("HotEntryPoints", id)
	}
	for _, id := range HotAmortizedStops {
		check("HotAmortizedStops", id)
	}
	for id := range ProjectTopicConfig().Roots {
		check("ProjectTopicConfig().Roots", id)
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

// exportedCallersAllowed are the exported functions under repro/internal/
// that may stay without a non-test caller, each with the reason.
var exportedCallersAllowed = map[string]string{
	"repro/internal/basis.Kron2D":                      "reference the separable transform tests compare against",
	"repro/internal/basis.CheckOrthonormal":            "reference the basis tests compare against",
	"repro/internal/fft.Naive":                         "reference the FFT tests compare against",
	"repro/internal/mat.NewFromRows":                   "helper shared by other packages' tests",
	"repro/internal/mat.Norm0":                         "helper shared by other packages' tests",
	"repro/internal/mat.SubVec":                        "helper shared by other packages' tests",
	"repro/internal/mat.AddVec":                        "helper shared by other packages' tests",
	"(*repro/internal/netsim.FaultPlan).Down":          "crash-now fault primitive",
	"(*repro/internal/netsim.FaultPlan).Up":            "crash-now fault primitive",
	"(*repro/internal/broker.Broker).PositionsContext": "position-aware gather plans rounds from it",
	"(*repro/internal/broker.Broker).Unregister":       "churn lifecycle: without it recycled IDs cannot rejoin",
	"repro/internal/cs.ChooseKCrossValOp":              "candidate support-size rule",
	"(*repro/internal/stream.Pipeline).LastErr":        "the only failure signal of a background run",
	"(*repro/internal/query.Filter).Source":            "FuzzCompile's round-trip property",
	"(*repro/internal/bus.Client).Dropped":             "drop accounting",
	"(*repro/internal/bus.Subscription).Dropped":       "drop accounting",
	"repro/internal/obs.Disable":                       "tests reset the process-wide registry with it",
}

// TestExportedHaveCallers keeps internal/ free of API that only tests
// reach: every exported function or method declared under repro/internal/
// is referenced from non-test code somewhere in the module, outside its
// own body. A method whose name an interface of the program or the
// standard library declares counts as used, since calls through the
// interface do not name it. repro/internal/testutil/... exists for tests.
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
		decls := map[*types.Func]*ast.FuncDecl{}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
						decls[fn] = fd
					}
				}
			}
		}
		for id, obj := range pkg.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if fd := decls[fn]; fd != nil && fd.Pos() <= id.Pos() && id.Pos() < fd.End() {
				continue // recursion is not a caller
			}
			used[fn] = true
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
				if _, allowed := exportedCallersAllowed[id]; !allowed {
					t.Errorf("%s has no non-test caller: delete it, or allowlist it with a reason", id)
				}
			}
		}
	}
	for id, reason := range exportedCallersAllowed {
		if !found[id] {
			t.Errorf("allowlisted %s (%s) is gone or has a caller: drop it from exportedCallersAllowed", id, reason)
		}
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
