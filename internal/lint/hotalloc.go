package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// hotalloc: allocation-site discipline on per-event paths.
//
// PR 1 hand-hoisted the decoder buffers and DESIGN.md §6 commits the
// instrumented per-event paths (bus publish, netsim delivery, store
// appends, serve queries) to zero steady-state allocation — but nothing
// guarded that contract: a later edit adding one fmt.Sprintf label or
// boxing one float per cell silently turns a 27 ns read into a GC
// treadmill at 640k QPS. hotalloc rebuilds the discipline statically.
//
// Scope: the call/defer-edge closure of the configured HotEntryPoints
// over the module-local call graph. `go` edges are not followed — a
// spawned goroutine is off the caller's event path. Each reached
// function is classified *hot* (runs once per event) or *loop-hot*
// (additionally runs once per element: reached through a call site
// inside a loop, or called from a loop-hot function).
//
// Allocation-site taxonomy:
//
//   - loop-scoped sites — flagged inside a lexical loop of a hot
//     function, or anywhere in a loop-hot function: make, new, slice
//     and map composite literals, &T{} pointer literals, and function
//     literals (closure allocation). Plain struct *value* literals are
//     exempt (stack-allocated; `out = append(out, Cell{...})` filling
//     a result buffer is the caller's amortized cost, not a per-event
//     leak).
//   - anywhere in a hot function: fmt.Sprintf/Sprint/Sprintln label
//     construction, string concatenation (+ on strings), and interface
//     boxing of basic-typed values in assignments (the map[string]any
//     store `env["v"] = x` allocates per call).
//   - exempt subtrees: arguments of fmt.Errorf / errors.New / panic —
//     error and panic paths are exceptional, not per-event.
//
// Messages carry the entry point through which the function became hot,
// so a finding deep in a helper is actionable without tracing by hand.

type hotState uint8

const (
	hotNone  hotState = iota
	hotPlain          // on the event path: runs once per event
	hotLoop           // reached through a loop: runs once per element
)

// HotAlloc returns the hot-path allocation analyzer. entries lists the
// FuncIDs of the per-event entry points whose call closure is guarded;
// stops lists amortized boundaries — functions whose cost is gated by a
// cache or once-guard, where hotness stops propagating (the boundary
// function itself is still scanned, its callees are not).
func HotAlloc(entries []string, stops []string) *Analyzer {
	return &Analyzer{
		Name: "hotalloc",
		Doc:  "no per-event allocations (loop make/new/literals/closures, Sprintf labels, string concat, interface boxing) on hot paths",
		Run: func(pass *Pass) {
			g := pass.Prog.CallGraph()
			state, via := hotClosure(g, entries, stops)
			for _, n := range g.SortedNodes() {
				if n.Pkg != pass.Pkg || state[n] == hotNone {
					continue
				}
				scanHotFunc(pass, n, state[n], via[n])
			}
		},
	}
}

// hotClosure propagates hotness from the entry points over call and
// defer edges: a call site inside a loop upgrades the callee to
// loop-hot, and loop-hot propagates unconditionally (the whole callee
// runs per element). via records the entry ID that first reached each
// node, as the finding's witness.
func hotClosure(g *CallGraph, entries []string, stops []string) (map[*CGNode]hotState, map[*CGNode]string) {
	state := map[*CGNode]hotState{}
	via := map[*CGNode]string{}
	for _, id := range entries {
		if n := g.Nodes[id]; n != nil {
			state[n] = hotPlain
			via[n] = id
		}
	}
	stop := map[string]bool{}
	for _, id := range stops {
		stop[id] = true
	}
	loops := map[*CGNode][][2]token.Pos{}
	g.fixpoint(false, func(n *CGNode, out []*CallEdge) bool {
		st := state[n]
		if st == hotNone || stop[n.ID] {
			return false
		}
		if _, done := loops[n]; !done {
			loops[n] = loopRanges(n.Body())
		}
		changed := false
		for _, e := range out {
			next := st
			if st == hotPlain && posInRanges(e.Pos, loops[n]) {
				next = hotLoop
			}
			if next > state[e.Callee] {
				state[e.Callee] = next
				if via[e.Callee] == "" {
					via[e.Callee] = via[n]
				}
				changed = true
			}
		}
		return changed
	})
	return state, via
}

// loopRanges collects the source extents of for/range statements in the
// body, excluding nested function literals (their loops belong to their
// own graph nodes).
func loopRanges(body *ast.BlockStmt) [][2]token.Pos {
	var out [][2]token.Pos
	ast.Inspect(body, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt:
			out = append(out, [2]token.Pos{x.Pos(), x.End()})
		case *ast.RangeStmt:
			out = append(out, [2]token.Pos{x.Pos(), x.End()})
		}
		return true
	})
	return out
}

func posInRanges(p token.Pos, rs [][2]token.Pos) bool {
	for _, r := range rs {
		if r[0] <= p && p < r[1] {
			return true
		}
	}
	return false
}

// scanHotFunc reports the allocation sites of one hot function.
func scanHotFunc(pass *Pass, n *CGNode, st hotState, via string) {
	body := n.Body()
	loops := loopRanges(body)
	perElem := func(p token.Pos) bool {
		return st == hotLoop || posInRanges(p, loops)
	}
	exempt := exemptRanges(pass, body)
	mapKeys := mapKeyRanges(n.Pkg, body)
	ast.Inspect(body, func(m ast.Node) bool {
		if m == nil {
			return true
		}
		if _, isLit := m.(*ast.FuncLit); isLit {
			// The literal's interior is its own graph node (scanned when
			// it is itself reachable); the literal expression here is a
			// closure allocation at this site.
			if perElem(m.Pos()) && !posInRanges(m.Pos(), exempt) {
				pass.Reportf(m.Pos(), "closure allocated per element on the hot path (entered via %s); hoist the function value out of the loop", via)
			}
			return false
		}
		if posInRanges(m.Pos(), exempt) {
			return true
		}
		switch x := m.(type) {
		case *ast.CallExpr:
			scanHotCall(pass, n, x, perElem, via)
		case *ast.CompositeLit:
			scanHotComposite(pass, n, x, perElem, via)
		case *ast.UnaryExpr:
			if x.Op == token.AND && perElem(x.Pos()) {
				if _, isComp := ast.Unparen(x.X).(*ast.CompositeLit); isComp {
					pass.Reportf(x.Pos(), "&T{} literal heap-allocates per element on the hot path (entered via %s); hoist or reuse the object", via)
				}
			}
		case *ast.BinaryExpr:
			// Concat used directly as a map index is exempt: the compiler
			// stack-buffers the key for m[a+b], so the idiomatic
			// links[from+"→"+to] lookup does not allocate.
			if x.Op == token.ADD && isStringExpr(n.Pkg, x) && !posInRanges(x.OpPos, mapKeys) {
				pass.Reportf(x.OpPos, "string concatenation allocates on the hot path (entered via %s); use a precomputed label or an appending writer", via)
			}
		case *ast.AssignStmt:
			scanHotBoxing(pass, n, x, via)
		}
		return true
	})
}

func scanHotCall(pass *Pass, n *CGNode, call *ast.CallExpr, perElem func(token.Pos) bool, via string) {
	info := n.Pkg.Info
	if id, ok := call.Fun.(*ast.Ident); ok {
		switch obj := info.Uses[id]; obj {
		case types.Universe.Lookup("make"), types.Universe.Lookup("new"):
			if perElem(call.Pos()) {
				pass.Reportf(call.Pos(), "%s allocates per element on the hot path (entered via %s); hoist the buffer out of the loop", id.Name, via)
			}
			return
		}
	}
	if pkgPath, name, sel, ok := pkgFuncCall(info, call); ok && pkgPath == "fmt" {
		switch name {
		case "Sprintf", "Sprint", "Sprintln":
			pass.Reportf(sel.Pos(), "fmt.%s builds a string per event on the hot path (entered via %s); precompute the label or use an appending encoder", name, via)
		}
	}
}

func scanHotComposite(pass *Pass, n *CGNode, lit *ast.CompositeLit, perElem func(token.Pos) bool, via string) {
	if !perElem(lit.Pos()) {
		return
	}
	tv, ok := n.Pkg.Info.Types[ast.Expr(lit)]
	if !ok {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice:
		pass.Reportf(lit.Pos(), "slice literal allocates per element on the hot path (entered via %s); hoist or reuse a buffer", via)
	case *types.Map:
		pass.Reportf(lit.Pos(), "map literal allocates per element on the hot path (entered via %s); hoist or reuse the map", via)
	}
}

// scanHotBoxing flags assignments that box a basic-typed value into an
// interface, including map[...]any element stores.
func scanHotBoxing(pass *Pass, n *CGNode, as *ast.AssignStmt, via string) {
	info := n.Pkg.Info
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		lt := info.TypeOf(lhs)
		rt := info.TypeOf(as.Rhs[i])
		if lt == nil || rt == nil {
			continue
		}
		if _, isIface := lt.Underlying().(*types.Interface); !isIface {
			continue
		}
		b, isBasic := rt.Underlying().(*types.Basic)
		if !isBasic || b.Kind() == types.UntypedNil {
			continue
		}
		pass.Reportf(as.Rhs[i].Pos(), "assignment boxes a %s into an interface per event on the hot path (entered via %s); use a concretely-typed field or a typed fast path", rt.String(), via)
	}
}

// exemptRanges: argument subtrees of error/panic construction — those
// paths are exceptional, not per-event.
func exemptRanges(pass *Pass, body *ast.BlockStmt) [][2]token.Pos {
	var out [][2]token.Pos
	ast.Inspect(body, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, isIdent := call.Fun.(*ast.Ident); isIdent && pass.Pkg.Info.Uses[id] == types.Universe.Lookup("panic") {
			out = append(out, [2]token.Pos{call.Pos(), call.End()})
			return true
		}
		if pkgPath, name, _, isFn := pkgFuncCall(pass.Pkg.Info, call); isFn {
			if (pkgPath == "fmt" && name == "Errorf") || pkgPath == "errors" {
				out = append(out, [2]token.Pos{call.Pos(), call.End()})
			}
		}
		return true
	})
	return out
}

// mapKeyRanges collects the index subtrees of map accesses, where the
// compiler keeps a concatenated string key on the stack.
func mapKeyRanges(pkg *Package, body *ast.BlockStmt) [][2]token.Pos {
	var out [][2]token.Pos
	ast.Inspect(body, func(m ast.Node) bool {
		ix, ok := m.(*ast.IndexExpr)
		if !ok {
			return true
		}
		if t := pkg.Info.TypeOf(ix.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				out = append(out, [2]token.Pos{ix.Index.Pos(), ix.Index.End()})
			}
		}
		return true
	})
	return out
}

func isStringExpr(pkg *Package, e ast.Expr) bool {
	t := pkg.Info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
