package lint

import (
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
