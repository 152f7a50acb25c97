package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// lockorder: interprocedural lock-acquisition analysis.
//
// The walker derives, for every function in the call graph, which
// mutexes are held at every resolved call site by interpreting the body
// in statement order: Lock/RLock adds to the held set, Unlock/RUnlock
// removes, `defer mu.Unlock()` keeps the lock held to function exit, and
// branches merge by intersection (a lock is "held" after an if/else only
// if both arms leave it held), so conditional locking never produces a
// phantom hold. A `go` statement starts its callee with an empty held
// set — the spawned goroutine shares no lock context with its spawner.
//
// On top of the per-function facts the analyzer computes the transitive
// may-acquire set of every function (fixpoint over call and defer edges)
// and builds the global lock-acquisition graph: an edge A→B means "B was
// acquired, directly or through a callee, while A was held". It reports
//
//   - self-deadlocks: acquiring a lock already in the held set, or
//     calling (while holding L) into a function that re-acquires L; a
//     read-read pair is exempt (recursive RLock only deadlocks under
//     writer starvation, which would drown the report in noise);
//   - lock-order cycles: any edge that closes a cycle in the acquisition
//     graph is a potential AB/BA deadlock and is reported at the
//     acquisition site that witnesses it.
//
// Lock identity is type-level: a field mutex is "pkg.Type.field" (every
// instance of the type conflates — ordering violations between two
// instances of one type are out of scope), a package-level mutex is
// "pkg.var", and a local is scoped to its function. The inferred
// hierarchy is dumped, sorted, by `sdlint -lockgraph` (FormatLockGraph)
// so DESIGN.md can pin it.

// lockMode distinguishes read from write acquisition of an RWMutex.
type lockMode uint8

const (
	lockRead lockMode = 1 << iota
	lockWrite
)

// rwConflict reports whether two acquisition modes of the same lock can
// deadlock: anything involving a writer.
func rwConflict(a, b lockMode) bool { return (a|b)&lockWrite != 0 }

// lockFinding is one diagnostic-to-be, tagged with the package whose
// pass should report it (keeps suppression and dedup per package).
type lockFinding struct {
	pkg *Package
	pos token.Pos
	msg string
}

// lockEdge is one edge of the global lock-acquisition graph with its
// earliest witness position.
type lockEdge struct {
	from, to string
	pkg      *Package
	pos      token.Pos
	witness  token.Position
}

// lockAnalysis is the memoized whole-program result.
type lockAnalysis struct {
	edges    map[[2]string]*lockEdge
	findings []lockFinding
}

// lockSummary is one function's lock facts.
type lockSummary struct {
	heldAt   map[*CallEdge]map[string]lockMode // held set at each out-edge
	acquires map[string]lockMode               // direct acquisitions
	transAcq map[string]lockMode               // after the call-graph fixpoint
}

// lockAnalysisResult computes (once) the whole-program lock analysis.
func (p *Program) lockAnalysisResult() *lockAnalysis {
	if p.locks != nil {
		return p.locks
	}
	la := &lockAnalysis{edges: map[[2]string]*lockEdge{}}
	g := p.CallGraph()
	nodes := g.SortedNodes()

	// Per-function walk.
	summ := map[*CGNode]*lockSummary{}
	for _, n := range nodes {
		w := &lockWalker{la: la, g: g, node: n, summ: &lockSummary{
			heldAt:   map[*CallEdge]map[string]lockMode{},
			acquires: map[string]lockMode{},
		}}
		w.walk()
		summ[n] = w.summ
	}

	// Transitive may-acquire sets, callee to caller. Go edges never
	// carry them: the spawned goroutine's acquisitions happen on another
	// stack and cannot deadlock against locks merely held by the spawner
	// at spawn time.
	for _, s := range summ {
		s.transAcq = cloneHeld(s.acquires)
	}
	g.fixpoint(false, func(n *CGNode, out []*CallEdge) bool {
		changed := false
		s := summ[n]
		for _, e := range out {
			for id, m := range summ[e.Callee].transAcq {
				if s.transAcq[id]&m != m {
					s.transAcq[id] |= m
					changed = true
				}
			}
		}
		return changed
	})

	// Interprocedural edges and self-deadlocks: compose each call site's
	// held set with the callee's transitive acquisitions.
	for _, n := range nodes {
		s := summ[n]
		for _, e := range n.Out {
			if e.Kind == EdgeGo {
				continue
			}
			held := s.heldAt[e]
			if len(held) == 0 {
				continue
			}
			cs := summ[e.Callee]
			for _, id := range sortedLockIDs(held) {
				for _, aid := range sortedLockIDs(cs.transAcq) {
					if aid == id {
						if rwConflict(held[id], cs.transAcq[aid]) {
							la.finding(n.Pkg, e.Pos,
								"call to %s while holding %s, which the callee re-acquires (self-deadlock)",
								e.Callee.ID, id)
						}
						continue
					}
					la.addEdge(id, aid, n.Pkg, e.Pos)
				}
			}
		}
	}

	// Cycle detection: an edge whose target can reach its source closes
	// a cycle; report it at the witness acquisition site.
	succ := map[string][]string{}
	for _, e := range la.edges {
		succ[e.from] = append(succ[e.from], e.to)
	}
	for _, e := range sortedLockEdges(la.edges) {
		if lockReaches(succ, e.to, e.from) {
			la.finding(e.pkg, e.pos,
				"lock-order cycle: %s acquired while holding %s, but a reverse acquisition path exists (AB/BA deadlock risk)",
				e.to, e.from)
		}
	}

	sort.Slice(la.findings, func(i, j int) bool {
		return la.findings[i].pos < la.findings[j].pos
	})
	p.locks = la
	return la
}

func (la *lockAnalysis) finding(pkg *Package, pos token.Pos, format string, args ...any) {
	la.findings = append(la.findings, lockFinding{pkg: pkg, pos: pos, msg: fmt.Sprintf(format, args...)})
}

// addEdge records from→to, keeping the earliest witness position so
// repeated runs dump identical graphs.
func (la *lockAnalysis) addEdge(from, to string, pkg *Package, pos token.Pos) {
	k := [2]string{from, to}
	w := pkg.Fset.Position(pos)
	if e, ok := la.edges[k]; ok {
		if posLess(w, e.witness) {
			e.pkg, e.pos, e.witness = pkg, pos, w
		}
		return
	}
	la.edges[k] = &lockEdge{from: from, to: to, pkg: pkg, pos: pos, witness: w}
}

func posLess(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Column < b.Column
}

func sortedLockIDs(m map[string]lockMode) []string {
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

func sortedLockEdges(m map[[2]string]*lockEdge) []*lockEdge {
	out := make([]*lockEdge, 0, len(m))
	for _, e := range m {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].from != out[j].from {
			return out[i].from < out[j].from
		}
		return out[i].to < out[j].to
	})
	return out
}

// lockReaches reports whether from can reach to in the acquisition graph.
func lockReaches(succ map[string][]string, from, to string) bool {
	seen := map[string]bool{from: true}
	stack := []string{from}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == to {
			return true
		}
		for _, s := range succ[n] {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}

// lockWalker is the flow walker's rule set for one function body: the
// held set is the state, lock and unlock calls are the transfer.
//
// It has a second consumer beyond lockorder: raceguard runs its
// own walkers with the access hook set, reusing the held-set flow
// tracking to learn which locks are held at every field access. The hook
// is observational only — it never changes how held sets evolve — so
// lockorder's results are identical whether or not it is installed.
type lockWalker struct {
	la   *lockAnalysis
	g    *CallGraph
	node *CGNode
	summ *lockSummary

	// access, when set, is invoked for every selector expression the walk
	// reaches, with the held set at that statement and whether the
	// selector is a write target (assignment LHS or ++/--).
	access func(sel *ast.SelectorExpr, held map[string]lockMode, write bool)
}

func cloneHeld(h map[string]lockMode) map[string]lockMode {
	c := make(map[string]lockMode, len(h))
	for k, v := range h {
		c[k] = v
	}
	return c
}

// intersectHeld keeps only locks held on both paths (modes union, so a
// write on either path keeps its conflict potential).
func intersectHeld(a, b map[string]lockMode) map[string]lockMode {
	out := map[string]lockMode{}
	for k, v := range a {
		if w, ok := b[k]; ok {
			out[k] = v | w
		}
	}
	return out
}

// walk interprets the node's body on the flow walker, the held set
// (lock → modes held) as its state.
func (w *lockWalker) walk() {
	fw := &flowWalker[map[string]lockMode]{pkg: w.node.Pkg, rules: w}
	fw.stmts(w.node.Body().List, map[string]lockMode{})
}

func (*lockWalker) clone(h map[string]lockMode) map[string]lockMode { return cloneHeld(h) }

// join keeps only the locks held on both paths.
func (*lockWalker) join(a, b map[string]lockMode) map[string]lockMode { return intersectHeld(a, b) }

func (w *lockWalker) expr(e ast.Expr, held map[string]lockMode) map[string]lockMode {
	w.exprEdges(e, held)
	return held
}

// leaf applies Lock/RLock and Unlock/RUnlock calls to the held set (a
// deferred unlock keeps the lock held to function exit) and snapshots
// the held set at every other statement's call edges and field accesses.
func (w *lockWalker) leaf(s ast.Stmt, held map[string]lockMode) map[string]lockMode {
	switch x := s.(type) {
	case *ast.ExprStmt:
		if call, ok := x.X.(*ast.CallExpr); ok {
			if id, mode, acq, ok := w.lockOp(call); ok {
				if acq {
					w.acquire(id, mode, call.Lparen, held)
				} else {
					delete(held, id)
				}
				return held
			}
		}
		w.exprEdges(x.X, held)
	case *ast.DeferStmt:
		if _, _, acq, ok := w.lockOp(x.Call); ok && !acq {
			return held
		}
		w.exprEdges(x.Call, held)
	case *ast.GoStmt:
		w.exprEdges(x.Call, held)
	default:
		w.markWrites(s, held)
		w.exprEdges(s, held)
	}
	return held
}

// acquire records a Lock/RLock: order edges against everything already
// held, a self-deadlock if the lock is already in the held set (unless
// read-read), then the new hold.
func (w *lockWalker) acquire(id string, mode lockMode, pos token.Pos, held map[string]lockMode) {
	if old, reentrant := held[id]; reentrant && rwConflict(old, mode) {
		w.la.finding(w.node.Pkg, pos, "%s acquired while already held (self-deadlock)", id)
	}
	for h := range held {
		if h != id {
			w.la.addEdge(h, id, w.node.Pkg, pos)
		}
	}
	held[id] |= mode
	w.summ.acquires[id] |= mode
}

// markWrites feeds the access hook the write targets of an assignment or
// ++/-- statement: each LHS is unwrapped through parens, indexing, and
// pointer dereference to the selector being written through (s.f = v,
// s.f[i] = v, *s.f = v all write through field f). No-op without a hook.
func (w *lockWalker) markWrites(s ast.Stmt, held map[string]lockMode) {
	if w.access == nil {
		return
	}
	var targets []ast.Expr
	switch x := s.(type) {
	case *ast.AssignStmt:
		targets = x.Lhs
	case *ast.IncDecStmt:
		targets = []ast.Expr{x.X}
	default:
		return
	}
	for _, t := range targets {
		for {
			switch u := t.(type) {
			case *ast.ParenExpr:
				t = u.X
			case *ast.IndexExpr:
				t = u.X
			case *ast.StarExpr:
				t = u.X
			case *ast.SelectorExpr:
				w.access(u, held, true)
				t = nil
			default:
				t = nil
			}
			if t == nil {
				break
			}
		}
	}
}

// exprEdges snapshots the current held set at every resolved call edge
// inside the expression (or statement). Function-literal interiors are
// excluded — literals are their own graph nodes with their own walk —
// and go edges snapshot empty (the spawnee starts with no locks).
func (w *lockWalker) exprEdges(n ast.Node, held map[string]lockMode) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if _, isLit := m.(*ast.FuncLit); isLit {
			return false
		}
		if w.access != nil {
			if sel, isSel := m.(*ast.SelectorExpr); isSel {
				w.access(sel, held, false)
			}
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		e := w.g.EdgeByCall[call]
		if e == nil || e.Caller != w.node {
			return true
		}
		snap := map[string]lockMode{}
		if e.Kind != EdgeGo {
			snap = cloneHeld(held)
		}
		if prev, seen := w.summ.heldAt[e]; seen {
			snap = intersectHeld(prev, snap)
		}
		w.summ.heldAt[e] = snap
		return true
	})
}

// lockOp classifies a call as a sync.Mutex/RWMutex acquire or release
// and identifies the lock.
func (w *lockWalker) lockOp(call *ast.CallExpr) (id string, mode lockMode, acquire, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", 0, false, false
	}
	switch sel.Sel.Name {
	case "Lock":
		mode, acquire = lockWrite, true
	case "RLock":
		mode, acquire = lockRead, true
	case "Unlock":
		mode, acquire = lockWrite, false
	case "RUnlock":
		mode, acquire = lockRead, false
	default:
		return "", 0, false, false
	}
	fn, _ := w.node.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", 0, false, false
	}
	id, ok = w.lockID(sel.X)
	if !ok {
		return "", 0, false, false
	}
	return id, mode, acquire, true
}

// lockID names the mutex operand. Field mutexes are identified by the
// owner's static type ("pkg.Type.field"), package-level mutexes by
// "pkg.var", locals by their enclosing function.
func (w *lockWalker) lockID(e ast.Expr) (string, bool) {
	info := w.node.Pkg.Info
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		obj, _ := info.ObjectOf(x.Sel).(*types.Var)
		if obj == nil || !obj.IsField() {
			return "", false
		}
		owner := namedType(info.TypeOf(x.X))
		if owner == nil || owner.Obj().Pkg() == nil {
			return "", false
		}
		return owner.Obj().Pkg().Path() + "." + owner.Obj().Name() + "." + obj.Name(), true
	case *ast.Ident:
		v, _ := info.ObjectOf(x).(*types.Var)
		if v == nil {
			return "", false
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name(), true
		}
		// Local (including a receiver that embeds the mutex): scope the
		// identity to the declared function so distinct locals in
		// different functions never alias.
		rootID := w.node.ID
		if i := indexByte(rootID, '$'); i >= 0 {
			rootID = rootID[:i]
		}
		return rootID + "." + v.Name(), true
	}
	return "", false
}

// isTerminalExpr reports whether the expression statement provably does
// not return: panic, os.Exit, log.Fatal*, runtime.Goexit.
func isTerminalExpr(pkg *Package, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	if id, isIdent := ast.Unparen(call.Fun).(*ast.Ident); isIdent {
		if b, isB := pkg.Info.Uses[id].(*types.Builtin); isB && b.Name() == "panic" {
			return true
		}
	}
	if pkgPath, name, _, isPkgFn := pkgFuncCall(pkg.Info, call); isPkgFn {
		switch {
		case pkgPath == "os" && name == "Exit",
			pkgPath == "runtime" && name == "Goexit",
			pkgPath == "log" && (name == "Fatal" || name == "Fatalf" || name == "Fatalln"),
			pkgPath == "log" && (name == "Panic" || name == "Panicf" || name == "Panicln"):
			return true
		}
	}
	return false
}

// Lockorder returns the lock-order analyzer. The analysis itself is
// whole-program and memoized on the Pass's Program; each pass reports
// only the findings positioned in its own package.
func Lockorder() *Analyzer {
	return &Analyzer{
		Name: "lockorder",
		Doc:  "lock-acquisition cycles (AB/BA deadlocks) and re-entrant self-deadlocks across call chains",
		Run: func(pass *Pass) {
			la := pass.Prog.lockAnalysisResult()
			for _, f := range la.findings {
				if f.pkg == pass.Pkg {
					pass.Reportf(f.pos, "%s", f.msg)
				}
			}
		},
	}
}

// FormatLockGraph renders the inferred lock-acquisition graph as sorted,
// byte-stable text: one "A -> B (file:line)" line per edge, the witness
// being the earliest acquisition site that orders the pair.
func FormatLockGraph(prog *Program) string {
	la := prog.lockAnalysisResult()
	var b []byte
	for _, e := range sortedLockEdges(la.edges) {
		b = append(b, fmt.Sprintf("%s -> %s (%s:%d)\n", e.from, e.to, baseName(e.witness.Filename), e.witness.Line)...)
	}
	return string(b)
}
