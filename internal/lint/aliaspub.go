package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// aliaspub: immutability after publish.
//
// The serving layer's correctness rests on a copy-on-write discipline:
// once a value has been handed to a publish sink — snapshot
// Registry.Publish, bus Publish/PublishRetained, a channel send, or an
// atomic.Pointer Store/Swap/CompareAndSwap — concurrent readers may
// hold it, and any later write through a retained alias corrupts served
// answers silently (no lock is even supposed to be involved on the read
// path, so the race detector rarely sees it). aliaspub pins that
// discipline statically:
//
//   - inside the publishing function, a write through the published
//     value (field store, element store, pointer store, ++/--) at a
//     source position after the sink call is a finding; so is an append
//     to a published slice (append writes into the shared backing array
//     whenever capacity allows) and a rebinding of a variable whose
//     address was published;
//   - aliases created by single ident-to-ident copies (v := s) are
//     tracked with the original — publishing s and then writing v.f is
//     the same bug;
//   - passing the published value to a module-local callee that writes
//     through the corresponding parameter (directly or transitively,
//     by a call-graph fixpoint over parameter-mutation summaries) is a
//     finding at the call site;
//   - an exported method on a published type that returns one of its
//     slice or map fields directly (`return s.buf`) hands every caller
//     a mutable alias of the published buffer and is flagged — return
//     a copy, as Registry.History does.
//
// The after-the-sink check is positional (source order within the
// function, function literals included). A publish inside a loop
// followed lexically by a write earlier in the same loop body is not
// caught — the analyzer under-approximates rather than guessing at
// iteration order.

// pubFinding is one diagnostic-to-be, reported by its package's pass.
type pubFinding struct {
	pkg *Package
	pos token.Pos
	msg string
}

// pubAnalysis is the memoized whole-program result.
type pubAnalysis struct {
	sinks    map[string]int // FuncID → published argument index
	modPfx   string
	findings []pubFinding
}

// pubEvent is one publish site inside a function.
type pubEvent struct {
	pos    token.Pos
	sink   string        // human name for messages
	root   types.Object  // the published local/param, nil if untracked
	byAddr bool          // published &root: rebinding root also writes through it
	sel    *ast.CallExpr // nil for channel sends
}

// mutSummary records which parameters a function writes through,
// directly or via module-local callees.
type mutSummary struct {
	params []*types.Var
	mut    map[int]bool
}

func (p *Program) pubAnalysisResult(sinks map[string]int, modPfx string) *pubAnalysis {
	if p.pub != nil {
		return p.pub
	}
	pa := &pubAnalysis{sinks: sinks, modPfx: modPfx}
	g := p.CallGraph()

	summaries := paramMutFixpoint(g, modPfx)

	publishedTypes := map[*types.Named]token.Position{}

	for _, n := range g.SortedNodes() {
		if n.Decl == nil {
			continue // literal interiors are scanned with their declaring function
		}
		pa.scanFunc(n, g, summaries, publishedTypes)
	}

	pa.scanAccessors(p.Pkgs, publishedTypes)

	sort.Slice(pa.findings, func(i, j int) bool {
		return pa.findings[i].pos < pa.findings[j].pos
	})
	p.pub = pa
	return pa
}

func (pa *pubAnalysis) finding(pkg *Package, pos token.Pos, format string, args ...any) {
	pa.findings = append(pa.findings, pubFinding{pkg: pkg, pos: pos, msg: fmt.Sprintf(format, args...)})
}

// scanFunc checks one declared function (literal interiors included,
// positionally) for writes after publish.
func (pa *pubAnalysis) scanFunc(n *CGNode, g *CallGraph, summaries map[*types.Func]*mutSummary, publishedTypes map[*types.Named]token.Position) {
	pkg := n.Pkg
	body := n.Body()

	// Pass 1: publish events and the published named types.
	var events []pubEvent
	ast.Inspect(body, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.SendStmt:
			events = append(events, pa.eventFor(pkg, x.Value, x.Arrow, "channel send", nil))
		case *ast.CallExpr:
			if name, arg, ok := pa.sinkCall(pkg, x); ok && arg < len(x.Args) {
				events = append(events, pa.eventFor(pkg, x.Args[arg], x.Lparen, name, x))
			}
		}
		return true
	})
	if len(events) == 0 {
		return
	}
	for i := range events {
		if events[i].root == nil {
			continue
		}
		if named := namedType(events[i].root.Type()); named != nil && named.Obj().Pkg() != nil && hasPrefix(named.Obj().Pkg().Path(), pa.modPfx) {
			w := pkg.Fset.Position(events[i].pos)
			if prev, seen := publishedTypes[named]; !seen || posLess(w, prev) {
				publishedTypes[named] = w
			}
		}
	}

	// Pass 2: alias closure over single ident-to-ident copies. The
	// relation is kept symmetric: after `v := s`, both names share one
	// backing value, so publish-through-one/write-through-other is the
	// same bug in either direction.
	aliases := identCopyPairs(pkg, body)
	closure := func(root types.Object) map[types.Object]bool {
		set := map[types.Object]bool{root: true}
		for changed := true; changed; {
			changed = false
			for _, pr := range aliases {
				if set[pr[0]] != set[pr[1]] {
					set[pr[0]], set[pr[1]] = true, true
					changed = true
				}
			}
		}
		return set
	}

	// Pass 3: writes and mutating calls after each event.
	for _, ev := range events {
		if ev.root == nil {
			continue
		}
		set := closure(ev.root)
		sinkAt := pkg.Fset.Position(ev.pos)
		ast.Inspect(body, func(m ast.Node) bool {
			switch x := m.(type) {
			case *ast.AssignStmt:
				if x.Pos() <= ev.pos {
					return true
				}
				for _, lhs := range x.Lhs {
					pa.checkWrite(pkg, lhs, ev, set, sinkAt)
				}
				for _, rhs := range x.Rhs {
					pa.checkAppend(pkg, rhs, ev, set, sinkAt)
				}
			case *ast.IncDecStmt:
				if x.Pos() > ev.pos {
					pa.checkWrite(pkg, x.X, ev, set, sinkAt)
				}
			case *ast.CallExpr:
				if x.Lparen <= ev.pos || x == ev.sel {
					return true
				}
				pa.checkMutCall(pkg, x, ev, set, sinkAt, summaries)
			}
			return true
		})
	}
}

// eventFor resolves a published expression to a tracked root object.
func (pa *pubAnalysis) eventFor(pkg *Package, expr ast.Expr, pos token.Pos, sink string, call *ast.CallExpr) pubEvent {
	ev := pubEvent{pos: pos, sink: sink, sel: call}
	e := ast.Unparen(expr)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		if id, ok := ast.Unparen(u.X).(*ast.Ident); ok {
			ev.root, ev.byAddr = pkg.Info.ObjectOf(id), true
		}
		return ev
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return ev // composite literal / call result: ownership transfers, nothing retained
	}
	obj := pkg.Info.ObjectOf(id)
	if v, isVar := obj.(*types.Var); isVar && aliasable(v.Type()) {
		ev.root = obj
	}
	return ev
}

// sinkCall reports whether the call is a publish sink: a configured
// FuncID, or an atomic.Pointer Store/Swap/CompareAndSwap.
func (pa *pubAnalysis) sinkCall(pkg *Package, call *ast.CallExpr) (name string, arg int, ok bool) {
	fn := calleeFunc(pkg.Info, call)
	if fn == nil {
		return "", 0, false
	}
	if sig, isSig := fn.Type().(*types.Signature); isSig && sig.Recv() != nil {
		if isNamed(sig.Recv().Type(), "sync/atomic", "Pointer") {
			switch fn.Name() {
			case "Store", "Swap":
				return "atomic.Pointer." + fn.Name(), 0, true
			case "CompareAndSwap":
				return "atomic.Pointer.CompareAndSwap", 1, true
			}
		}
	}
	if arg, isSink := pa.sinks[FuncID(fn)]; isSink {
		return shortFuncName(fn), arg, true
	}
	return "", 0, false
}

// checkWrite flags a write whose base identifier aliases the published
// value: through the value (x.f=, x[i]=, *x=) always, a plain rebind
// only when the published value was the variable's address.
func (pa *pubAnalysis) checkWrite(pkg *Package, lhs ast.Expr, ev pubEvent, set map[types.Object]bool, sinkAt token.Position) {
	id, through := writeBase(lhs)
	if id == nil || !set[pkg.Info.ObjectOf(id)] {
		return
	}
	if !through && !ev.byAddr {
		return // rebinding the local: the published header is unaffected
	}
	pa.finding(pkg, id.Pos(),
		"%s is written here after being published at %s:%d (%s); published values are immutable — copy before mutating",
		id.Name, baseName(sinkAt.Filename), sinkAt.Line, ev.sink)
}

// checkAppend flags append(x, ...) on a published slice: when the
// backing array has spare capacity, append writes into memory the
// published header can see.
func (pa *pubAnalysis) checkAppend(pkg *Package, rhs ast.Expr, ev pubEvent, set map[types.Object]bool, sinkAt token.Position) {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return
	}
	if id, isIdent := call.Fun.(*ast.Ident); !isIdent || id.Name != "append" || pkg.Info.Uses[id] != types.Universe.Lookup("append") {
		return
	}
	id, isIdent := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !isIdent || !set[pkg.Info.ObjectOf(id)] {
		return
	}
	pa.finding(pkg, call.Pos(),
		"append to %s after it was published at %s:%d (%s) can write into the shared backing array; publish a copy or re-slice to full capacity",
		id.Name, baseName(sinkAt.Filename), sinkAt.Line, ev.sink)
}

// checkMutCall flags passing the published value to a module-local
// callee that writes through the corresponding parameter.
func (pa *pubAnalysis) checkMutCall(pkg *Package, call *ast.CallExpr, ev pubEvent, set map[types.Object]bool, sinkAt token.Position, summaries map[*types.Func]*mutSummary) {
	fn := calleeFunc(pkg.Info, call)
	if fn == nil {
		return
	}
	summ := summaries[fn]
	if summ == nil {
		return
	}
	for i, a := range call.Args {
		e := ast.Unparen(a)
		if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
			e = ast.Unparen(u.X)
		}
		id, ok := e.(*ast.Ident)
		if !ok || !set[pkg.Info.ObjectOf(id)] {
			continue
		}
		pi := i
		if pi >= len(summ.params) {
			pi = len(summ.params) - 1 // variadic tail
		}
		if pi < 0 || !summ.mut[pi] {
			continue
		}
		pa.finding(pkg, call.Lparen,
			"%s is passed to %s after being published at %s:%d (%s); the callee writes through this parameter",
			id.Name, shortFuncName(fn), baseName(sinkAt.Filename), sinkAt.Line, ev.sink)
	}
}

// scanAccessors flags exported methods on published types returning a
// slice or map field directly.
func (pa *pubAnalysis) scanAccessors(pkgs []*Package, publishedTypes map[*types.Named]token.Position) {
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Recv == nil || fd.Body == nil || !fd.Name.IsExported() {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				recv := namedType(fn.Type().(*types.Signature).Recv().Type())
				if recv == nil {
					continue
				}
				pubAt, isPub := publishedTypes[recv]
				if !isPub {
					continue
				}
				ast.Inspect(fd.Body, func(m ast.Node) bool {
					if _, isLit := m.(*ast.FuncLit); isLit {
						return false
					}
					ret, ok := m.(*ast.ReturnStmt)
					if !ok {
						return true
					}
					for _, res := range ret.Results {
						sel, ok := ast.Unparen(res).(*ast.SelectorExpr)
						if !ok {
							continue
						}
						fld, _ := pkg.Info.ObjectOf(sel.Sel).(*types.Var)
						if fld == nil || !fld.IsField() || !bufferType(fld.Type()) {
							continue
						}
						base, ok := ast.Unparen(sel.X).(*ast.Ident)
						if !ok || pkg.Info.ObjectOf(base) != recvObj(fn) {
							continue
						}
						pa.finding(pkg, sel.Pos(),
							"exported %s returns field %s of %s, published at %s:%d, without copying; callers get a mutable alias of served data",
							fn.Name(), fld.Name(), recv.Obj().Name(), baseName(pubAt.Filename), pubAt.Line)
					}
					return true
				})
			}
		}
	}
}

func recvObj(fn *types.Func) types.Object {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return nil
	}
	return sig.Recv()
}

// paramMutFixpoint computes, for every module-local declared function,
// which pointer-like parameters it writes through — directly, or by
// passing them on to another module-local function that does.
func paramMutFixpoint(g *CallGraph, modPfx string) map[*types.Func]*mutSummary {
	summ := map[*types.Func]*mutSummary{}
	for _, n := range g.SortedNodes() {
		if n.Decl == nil || n.Fn == nil || !hasPrefix(n.Pkg.Path, modPfx) {
			continue
		}
		sig := n.Fn.Type().(*types.Signature)
		s := &mutSummary{mut: map[int]bool{}}
		for i := 0; i < sig.Params().Len(); i++ {
			s.params = append(s.params, sig.Params().At(i))
		}
		summ[n.Fn] = s
	}
	paramIndex := func(n *CGNode, id *ast.Ident) int {
		obj := n.Pkg.Info.ObjectOf(id)
		for i, p := range summ[n.Fn].params {
			if obj == p {
				return i
			}
		}
		return -1
	}
	// Direct writes.
	for _, n := range g.SortedNodes() {
		if n.Decl == nil || summ[n.Fn] == nil {
			continue
		}
		ast.Inspect(n.Body(), func(m ast.Node) bool {
			var targets []ast.Expr
			switch x := m.(type) {
			case *ast.AssignStmt:
				targets = x.Lhs
			case *ast.IncDecStmt:
				targets = []ast.Expr{x.X}
			default:
				return true
			}
			for _, t := range targets {
				id, through := writeBase(t)
				if id == nil || !through {
					continue // rebinding a parameter never escapes the callee
				}
				if i := paramIndex(n, id); i >= 0 && aliasable(summ[n.Fn].params[i].Type()) {
					summ[n.Fn].mut[i] = true
				}
			}
			return true
		})
	}
	// Transitive: param forwarded to a mutating callee.
	for changed := true; changed; {
		changed = false
		for _, n := range g.SortedNodes() {
			if n.Decl == nil || summ[n.Fn] == nil {
				continue
			}
			for _, e := range n.Out {
				if e.Call == nil || e.Callee == nil || e.Callee.Fn == nil {
					continue
				}
				cs := summ[e.Callee.Fn]
				if cs == nil {
					continue
				}
				for ai, a := range e.Call.Args {
					ae := ast.Unparen(a)
					if u, ok := ae.(*ast.UnaryExpr); ok && u.Op == token.AND {
						ae = ast.Unparen(u.X)
					}
					id, ok := ae.(*ast.Ident)
					if !ok {
						continue
					}
					pi := ai
					if pi >= len(cs.params) {
						pi = len(cs.params) - 1
					}
					if pi < 0 || !cs.mut[pi] {
						continue
					}
					if i := paramIndex(n, id); i >= 0 && !summ[n.Fn].mut[i] {
						summ[n.Fn].mut[i] = true
						changed = true
					}
				}
			}
		}
	}
	return summ
}

// identCopyPairs collects single ident-to-ident copies (v := s, v = s)
// of aliasable values within the body.
func identCopyPairs(pkg *Package, body *ast.BlockStmt) [][2]types.Object {
	var out [][2]types.Object
	ast.Inspect(body, func(m ast.Node) bool {
		as, ok := m.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			if i >= len(as.Lhs) {
				break
			}
			rid, ok := ast.Unparen(rhs).(*ast.Ident)
			if !ok {
				continue
			}
			lid, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			ro, lo := pkg.Info.ObjectOf(rid), pkg.Info.ObjectOf(lid)
			if ro == nil || lo == nil || ro == lo {
				continue
			}
			if rv, isVar := ro.(*types.Var); !isVar || !aliasable(rv.Type()) {
				continue
			}
			out = append(out, [2]types.Object{lo, ro})
		}
		return true
	})
	return out
}

// writeBase unwraps an assignment target to its base identifier and
// reports whether the write goes *through* the value (selector, index,
// or dereference) rather than rebinding the name itself.
func writeBase(e ast.Expr) (*ast.Ident, bool) {
	through := false
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e, through = x.X, true
		case *ast.IndexExpr:
			e, through = x.X, true
		case *ast.StarExpr:
			e, through = x.X, true
		case *ast.Ident:
			return x, through
		default:
			return nil, false
		}
	}
}

// aliasable: can a copy of this value alias the original's storage?
func aliasable(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Interface:
		return true
	}
	return false
}

// bufferType: slice or map — the shapes whose direct return hands out a
// mutable alias.
func bufferType(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map:
		return true
	}
	return false
}

// shortFuncName trims the import path of a FuncID down to the package
// base name for readability: "(*repro/internal/snapshot.Registry).Publish"
// → "(*snapshot.Registry).Publish".
func shortFuncName(fn *types.Func) string {
	id := FuncID(fn)
	pfx, s := "", id
	if hasPrefix(s, "(*") {
		pfx, s = "(*", s[2:]
	} else if hasPrefix(s, "(") {
		pfx, s = "(", s[1:]
	}
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '/' {
			return pfx + s[i+1:]
		}
	}
	return id
}

func hasPrefix(s, pfx string) bool {
	return len(s) >= len(pfx) && s[:len(pfx)] == pfx
}

// AliasPub returns the immutability-after-publish analyzer. sinks maps
// publish-function FuncIDs to the index of the published argument;
// channel sends and atomic.Pointer stores are always sinks.
func AliasPub(sinks map[string]int, modulePrefix string) *Analyzer {
	return &Analyzer{
		Name: "aliaspub",
		Doc:  "values handed to publish sinks (snapshot/bus publish, channel sends, atomic.Pointer stores) must not be written through afterwards",
		Run: func(pass *Pass) {
			pa := pass.Prog.pubAnalysisResult(sinks, modulePrefix)
			for _, f := range pa.findings {
				if f.pkg == pass.Pkg {
					pass.Reportf(f.pos, "%s", f.msg)
				}
			}
		},
	}
}
