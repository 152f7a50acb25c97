package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// The interprocedural layer: a deterministic static call graph over the
// loaded package set. The lock analysis (locks) is built on top of it:
// the bug classes it guards (AB/BA deadlocks between package mutexes,
// writes off-lock on a goroutine path) are properties of call *chains*,
// not of any single function body.
//
// Resolution policy, chosen for zero false edges:
//
//   - direct calls to package-level functions resolve through go/types
//     (aliased imports, shadowing handled);
//   - method calls resolve when the receiver's static type is concrete —
//     calls through interface values stay unresolved (no class-hierarchy
//     guessing);
//   - function literals become their own nodes, named parent$N in source
//     order, so `go func() { ... }()` bodies are first-class;
//   - an identifier bound exactly once to a function literal in the same
//     body (`send := func(...) {...}`) resolves to that literal;
//   - calls through other function values (fields, parameters) stay
//     unresolved.
//
// Every edge is tagged with how control transfers: a plain call, a `go`
// statement (new goroutine — the spawned work shares no lock context
// with the spawner), or a `defer` (runs at function exit).

// EdgeKind tags how an edge transfers control.
type EdgeKind uint8

// Edge kinds.
const (
	EdgeCall  EdgeKind = iota // ordinary synchronous call
	EdgeGo                    // go statement: callee runs on a new goroutine
	EdgeDefer                 // defer statement: callee runs at function exit
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeGo:
		return "go"
	case EdgeDefer:
		return "defer"
	default:
		return "call"
	}
}

// CallEdge is one resolved call site.
type CallEdge struct {
	Caller *CGNode
	Callee *CGNode
	Kind   EdgeKind
	Pos    token.Pos
	Call   *ast.CallExpr
}

// CGNode is one function in the graph: a declared function/method or a
// function literal.
type CGNode struct {
	ID   string        // canonical: "pkg.Func", "(*pkg.T).Method", "pkg.Func$1"
	Pkg  *Package      // owning package
	Fn   *types.Func   // nil for function literals
	Decl *ast.FuncDecl // non-nil for declared functions
	Lit  *ast.FuncLit  // non-nil for literals
	Out  []*CallEdge   // outgoing edges, source order
	In   []*CallEdge   // incoming edges
}

// Body returns the node's function body (never nil for graph nodes).
func (n *CGNode) Body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	return n.Lit.Body
}

// Pos returns the declaration position.
func (n *CGNode) Pos() token.Pos {
	if n.Decl != nil {
		return n.Decl.Pos()
	}
	return n.Lit.Pos()
}

// CallGraph is the module-local static call graph.
type CallGraph struct {
	Nodes      map[string]*CGNode
	EdgeByCall map[*ast.CallExpr]*CallEdge // call-site lookup for the flow walkers
	byFunc     map[*types.Func]*CGNode

	goReachable map[*CGNode]*CallEdge // node → witness go edge it is reachable from
}

// FuncID is the canonical node name of a declared function or method:
// the package path qualifies everything, so IDs are unique and sortable.
func FuncID(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		return "(" + types.TypeString(sig.Recv().Type(), nil) + ")." + fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	return fn.Name()
}

// SortedNodes returns the nodes ordered by ID (deterministic output).
func (g *CallGraph) SortedNodes() []*CGNode {
	out := make([]*CGNode, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// BuildCallGraph constructs the graph over the given packages. The same
// packages loaded in the same order produce the identical graph.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		Nodes:      map[string]*CGNode{},
		EdgeByCall: map[*ast.CallExpr]*CallEdge{},
		byFunc:     map[*types.Func]*CGNode{},
	}
	// Pass 1: a node per declared function with a body.
	type declWork struct {
		node *CGNode
	}
	var work []declWork
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				n := &CGNode{ID: FuncID(fn), Pkg: pkg, Fn: fn, Decl: fd}
				g.Nodes[n.ID] = n
				g.byFunc[fn] = n
				work = append(work, declWork{node: n})
			}
		}
	}
	// Pass 2: walk each body, creating literal child nodes and edges.
	for _, w := range work {
		g.walkBody(w.node, w.node.Body(), map[types.Object]*CGNode{}, &litCounter{})
	}
	return g
}

// litCounter numbers the function literals of one declared function in
// source order, so literal IDs are stable across runs.
type litCounter struct{ n int }

// walkBody scans one function body: it registers nested literals as
// child nodes, resolves call sites, and records edges. bindings maps
// local identifiers bound to function literals (inherited by nested
// literal bodies so sibling closures resolve).
func (g *CallGraph) walkBody(owner *CGNode, body *ast.BlockStmt, bindings map[types.Object]*CGNode, lits *litCounter) {
	// Literal IDs are rooted at the declared function: pkg.F$1, pkg.F$2,
	// ... numbered in registration order across nesting levels.
	root := rootID(owner.ID)
	type litWork struct {
		node *CGNode
		lit  *ast.FuncLit
	}
	var nested []litWork
	litNodes := map[*ast.FuncLit]*CGNode{}
	registerLit := func(lit *ast.FuncLit) *CGNode {
		if n, seen := litNodes[lit]; seen {
			return n
		}
		lits.n++
		n := &CGNode{ID: fmt.Sprintf("%s$%d", root, lits.n), Pkg: owner.Pkg, Lit: lit}
		g.Nodes[n.ID] = n
		litNodes[lit] = n
		nested = append(nested, litWork{node: n, lit: lit})
		return n
	}
	// Sweep 1: register directly nested literals (deeper ones belong to
	// their own walk), record single-assignment bindings, and tag the
	// call expressions that sit under go/defer statements.
	kindOf := map[*ast.CallExpr]EdgeKind{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			registerLit(x)
			return false
		case *ast.GoStmt:
			kindOf[x.Call] = EdgeGo
		case *ast.DeferStmt:
			kindOf[x.Call] = EdgeDefer
		case *ast.AssignStmt:
			for i, rhs := range x.Rhs {
				lit, ok := ast.Unparen(rhs).(*ast.FuncLit)
				if !ok || i >= len(x.Lhs) {
					continue
				}
				id, ok := x.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				obj := owner.Pkg.Info.ObjectOf(id)
				if obj == nil {
					continue
				}
				ln := registerLit(lit)
				if _, dup := bindings[obj]; dup {
					delete(bindings, obj) // rebound: ambiguous, stop resolving
				} else {
					bindings[obj] = ln
				}
			}
		}
		return true
	})
	// Sweep 2: one edge per resolvable call site, literal interiors
	// excluded (they get their own walk below).
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := g.resolveCall(owner.Pkg, call, bindings, litNodes)
		if callee == nil {
			return true
		}
		kind, tagged := kindOf[call]
		if !tagged {
			kind = EdgeCall
		}
		e := &CallEdge{Caller: owner, Callee: callee, Kind: kind, Pos: call.Lparen, Call: call}
		owner.Out = append(owner.Out, e)
		callee.In = append(callee.In, e)
		g.EdgeByCall[call] = e
		return true
	})
	// Recurse into the literals, sharing the binding environment (so
	// sibling closures resolve) and the literal counter.
	for _, lw := range nested {
		g.walkBody(lw.node, lw.lit.Body, bindings, lits)
	}
}

// rootID strips a literal's "$N" suffix: the ID of the declared
// function the node is or sits in.
func rootID(id string) string {
	if i := strings.IndexByte(id, '$'); i >= 0 {
		return id[:i]
	}
	return id
}

// resolveCall resolves one call expression to a graph node, or nil.
func (g *CallGraph) resolveCall(pkg *Package, call *ast.CallExpr, bindings map[types.Object]*CGNode, litNodes map[*ast.FuncLit]*CGNode) *CGNode {
	fun := ast.Unparen(call.Fun)
	// Immediately-invoked literal: func(){...}().
	if lit, ok := fun.(*ast.FuncLit); ok {
		return litNodes[lit]
	}
	// Local binding to a literal.
	if id, ok := fun.(*ast.Ident); ok {
		if obj := pkg.Info.ObjectOf(id); obj != nil {
			if n, ok := bindings[obj]; ok {
				return n
			}
		}
	}
	fn := calleeFunc(pkg.Info, call)
	if fn == nil {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if types.IsInterface(sig.Recv().Type()) {
			return nil // interface dispatch: deliberately unresolved
		}
	}
	return g.byFunc[fn]
}

// GoReachable returns, for every node reachable from a `go` statement
// (the spawned function and everything it calls, transitively), a
// witness go edge that reaches it. Memoized; deterministic because the
// BFS seeds are visited in sorted node order.
func (g *CallGraph) GoReachable() map[*CGNode]*CallEdge {
	if g.goReachable != nil {
		return g.goReachable
	}
	reach := map[*CGNode]*CallEdge{}
	var frontier []*CGNode
	for _, n := range g.SortedNodes() {
		for _, e := range n.Out {
			if e.Kind != EdgeGo || e.Callee == nil {
				continue
			}
			if _, seen := reach[e.Callee]; !seen {
				reach[e.Callee] = e
				frontier = append(frontier, e.Callee)
			}
		}
	}
	for len(frontier) > 0 {
		n := frontier[0]
		frontier = frontier[1:]
		witness := reach[n]
		for _, e := range n.Out {
			if e.Callee == nil {
				continue
			}
			if _, seen := reach[e.Callee]; !seen {
				reach[e.Callee] = witness
				frontier = append(frontier, e.Callee)
			}
		}
	}
	g.goReachable = reach
	return reach
}

// fixpoint is the one interprocedural fixpoint routine. It sweeps the
// nodes in SortedNodes order, handing update each node with its call and
// defer edges — never go edges: a spawned goroutine runs on its own
// stack, so no summary or entry state crosses one — until a whole sweep
// changes nothing. Summaries that flow callee to caller read a node's
// out-edges (in=false); entry states that flow caller to callee read its
// in-edges (in=true), or push along its out-edges. The sweep order is
// fixed, so a fact that records its first witness is deterministic.
func (g *CallGraph) fixpoint(in bool, update func(n *CGNode, edges []*CallEdge) bool) {
	nodes := g.SortedNodes()
	edges := make([][]*CallEdge, len(nodes))
	for i, n := range nodes {
		all := n.Out
		if in {
			all = n.In
		}
		for _, e := range all {
			if e.Kind != EdgeGo {
				edges[i] = append(edges[i], e)
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for i, n := range nodes {
			if update(n, edges[i]) {
				changed = true
			}
		}
	}
}

// FormatCallGraph renders the call graph of the packages matched by
// keep as sorted, byte-stable text: one block per node, edges in source
// order with their kind tag and file:line position.
func FormatCallGraph(g *CallGraph, fset *token.FileSet, keep func(pkgPath string) bool) string {
	var b []byte
	for _, n := range g.SortedNodes() {
		if !keep(n.Pkg.Path) {
			continue
		}
		b = append(b, n.ID...)
		b = append(b, '\n')
		for _, e := range n.Out {
			pos := fset.Position(e.Pos)
			line := fmt.Sprintf("  %-5s %s %s:%d\n", e.Kind, e.Callee.ID, baseName(pos.Filename), pos.Line)
			b = append(b, line...)
		}
	}
	return string(b)
}

func baseName(p string) string {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] == '/' || p[i] == '\\' {
			return p[i+1:]
		}
	}
	return p
}
