package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// locks: the one lock analysis, interprocedural and flow-ordered.
//
// One walk per function, on the flow walker, interprets the body in
// statement order: Lock/RLock adds to the held set, Unlock/RUnlock
// removes, `defer mu.Unlock()` keeps the lock held to function exit, and
// branches merge by intersection (a lock is "held" after an if/else only
// if both arms leave it held), so conditional locking never produces a
// phantom hold. The walk records the held set at every resolved call
// site and at every access to a field documented "guarded by mu". Two
// fixpoints then run on those summaries:
//
//   - the may-acquire fixpoint (callee to caller) gives every function
//     the locks it acquires, directly or through callees; composed with
//     the held sets at call sites it builds the global lock-acquisition
//     graph, where an edge A→B means "B was acquired while A was held";
//   - the entry fixpoint (caller to callee) gives every function the
//     locks held on entry along every incoming call and defer edge: the
//     intersection over its call sites of (caller's entry set ∪ locks
//     held at the call). A `go` edge grounds it to ∅ — a spawned
//     goroutine holds nothing of its parent — as does having no
//     incoming edge, so a helper only ever called with mu held inherits
//     {mu} and needs no rename.
//
// The findings:
//
//   - self-deadlocks: acquiring a lock already in the held set, or
//     calling (while holding L) into a function that re-acquires L; a
//     read-read pair is exempt (recursive RLock only deadlocks under
//     writer starvation, which would drown the report in noise);
//   - lock-order cycles: any edge that closes a cycle in the acquisition
//     graph is a potential AB/BA deadlock, reported at the acquisition
//     site that witnesses it;
//   - a write to a guarded field, on a path reachable from a `go`
//     statement, without the guard's write lock (entry set ∪ local held
//     set); the message names the spawn site;
//   - any other access to a guarded field, in a method of the owning
//     type or a closure inside one, where the guard is not held in any
//     mode; construction before the value escapes needs no lock, and
//     plain functions are out of scope;
//   - a "guarded by" annotation naming no sibling sync.Mutex/RWMutex;
//   - mixing: a field accessed through sync/atomic package functions in
//     one place and plainly in another has no consistent synchronization
//     story, and every plain access is reported. Typed atomics
//     (atomic.Pointer, atomic.Int64, ...) are safe by construction.
//
// Functions whose name ends in "Locked" (and literals inside them) carry
// the documented caller-holds-the-lock convention and are exempt from
// the access rules; functions with no grounded entry state (reachable
// only through dead cycles) are never flagged.
//
// Lock and field identity are type-level: a field mutex is
// "pkg.Type.field" (every instance of the type conflates — ordering
// violations between two instances of one type are out of scope, and
// accesses through aliases of the same struct type are checked without
// points-to analysis), a package-level mutex is "pkg.var", and a local
// is scoped to its function. The inferred hierarchy is dumped, sorted,
// by `sdlint -lockgraph` (FormatLockGraph) so DESIGN.md can pin it.

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
	accesses []*guardedAccess                  // guarded-field accesses, walk order
}

// guardedAccess is one access to a guarded field with the locks the
// function's own body holds at it.
type guardedAccess struct {
	sel   *ast.SelectorExpr
	field guardedField
	held  map[string]lockMode
	write bool
}

// guardedField is one "guarded by mu" annotation resolved to the owning
// struct and to type-level identities: the field, and the guard's lock
// ID ("pkg.Type.mu", as lockWalker.lockID names it).
type guardedField struct {
	typeName string // bare name of the owning struct type
	owner    string // "pkg.Type.field", for messages
	lockID   string // "pkg.Type.mu"
	guard    string // bare guard field name, for messages
}

// lockAnalysisResult computes (once) the whole-program lock analysis.
func (p *Program) lockAnalysisResult() *lockAnalysis {
	if p.locks != nil {
		return p.locks
	}
	la := &lockAnalysis{edges: map[[2]string]*lockEdge{}}
	g := p.CallGraph()
	guards := la.guardTable(p.Pkgs)

	summ := map[*CGNode]*lockSummary{}
	for _, n := range g.SortedNodes() {
		w := &lockWalker{la: la, g: g, node: n, guards: guards,
			bySel: map[*ast.SelectorExpr]*guardedAccess{},
			summ: &lockSummary{
				heldAt:   map[*CallEdge]map[string]lockMode{},
				acquires: map[string]lockMode{},
			}}
		w.walk()
		summ[n] = w.summ
	}
	la.orderFindings(g, summ)
	la.accessFindings(g, summ)
	la.atomicMixing(p.Pkgs)

	sort.Slice(la.findings, func(i, j int) bool {
		return la.findings[i].pos < la.findings[j].pos
	})
	p.locks = la
	return la
}

// orderFindings runs the may-acquire fixpoint, adds the interprocedural
// edges of the acquisition graph, and reports self-deadlocks through
// callees and lock-order cycles.
func (la *lockAnalysis) orderFindings(g *CallGraph, summ map[*CGNode]*lockSummary) {
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
	for _, n := range g.SortedNodes() {
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
}

// accessFindings runs the entry fixpoint and checks every guarded-field
// access against its guard, held on entry or taken locally.
func (la *lockAnalysis) accessFindings(g *CallGraph, summ map[*CGNode]*lockSummary) {
	entry := lockEntryFixpoint(g, summ)
	reach := g.GoReachable()
	for _, n := range g.SortedNodes() {
		ent, known := entry[n]
		if !known || strings.HasSuffix(rootID(n.ID), "Locked") {
			continue // no grounded entry state, or the caller holds the lock
		}
		method, recvType := ownerMethod(g, n), ""
		if method != nil {
			recvType = n.Pkg.Path + "." + receiverTypeName(method)
		}
		for _, a := range summ[n].accesses {
			gf := a.field
			mode := ent[gf.lockID] | a.held[gf.lockID]
			switch {
			case a.write && mode&lockWrite == 0 && reach[n] != nil:
				spawn := n.Pkg.Fset.Position(reach[n].Pos)
				how := "without holding it"
				if mode != 0 {
					how = "holding only the read lock"
				}
				la.finding(n.Pkg, a.sel.Sel.Pos(),
					"%s is guarded by %s but written %s in goroutine-reachable %s (spawned at %s:%d); lock %s for writes",
					gf.owner, gf.guard, how, n.ID, baseName(spawn.Filename), spawn.Line, gf.guard)
			case mode == 0 && method != nil && gf.lockID == recvType+"."+gf.guard:
				la.finding(n.Pkg, a.sel.Sel.Pos(),
					"%s.%s is guarded by %s, but method %s does not lock it before this access (lock %s first, or suffix the method name with Locked if the caller holds it)",
					gf.typeName, a.sel.Sel.Name, gf.guard, method.Name.Name, gf.guard)
			}
		}
	}
}

// ownerMethod returns the method declaration the node is, or whose body
// holds the literal the node is; nil for plain functions.
func ownerMethod(g *CallGraph, n *CGNode) *ast.FuncDecl {
	root := g.Nodes[rootID(n.ID)]
	if root == nil || root.Decl == nil || root.Decl.Recv == nil {
		return nil
	}
	return root.Decl
}

// lockEntryFixpoint computes, for every function, the set of locks held
// on entry along *every* incoming edge: the meet (intersection) over
// call and defer edges of the caller's entry set united with the locks
// held at the call site. A `go` edge contributes the empty set, so a
// function with one starts empty, as does a function with no incoming
// edges (external callers hold nothing we can prove). Nodes only
// reachable through unresolved calls or dead cycles stay absent from the
// map — no grounded state, and the caller treats them as unknown rather
// than unlocked.
func lockEntryFixpoint(g *CallGraph, summ map[*CGNode]*lockSummary) map[*CGNode]map[string]lockMode {
	entry := map[*CGNode]map[string]lockMode{}
	grounded := map[*CGNode]bool{}
	for _, n := range g.SortedNodes() {
		grounded[n] = len(n.In) == 0
		for _, e := range n.In {
			grounded[n] = grounded[n] || e.Kind == EdgeGo
		}
		if grounded[n] {
			entry[n] = map[string]lockMode{}
		}
	}
	g.fixpoint(true, func(n *CGNode, in []*CallEdge) bool {
		if grounded[n] {
			return false
		}
		var meet map[string]lockMode
		have := false
		for _, e := range in {
			callerEntry, known := entry[e.Caller]
			if !known {
				continue // ⊤: identity for intersection
			}
			contrib := unionHeld(callerEntry, summ[e.Caller].heldAt[e])
			if !have {
				meet, have = contrib, true
			} else {
				meet = intersectHeld(meet, contrib)
			}
		}
		if !have {
			return false
		}
		if prev, known := entry[n]; known && heldEqual(prev, meet) {
			return false
		}
		entry[n] = meet
		return true
	})
	return entry
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
// held set is the state, lock and unlock calls are the transfer, and
// every guarded-field access is recorded with the held set at it.
type lockWalker struct {
	la     *lockAnalysis
	g      *CallGraph
	node   *CGNode
	guards map[*types.Var]guardedField
	summ   *lockSummary
	bySel  map[*ast.SelectorExpr]*guardedAccess
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

// unionHeld merges two held sets, modes OR-ed.
func unionHeld(a, b map[string]lockMode) map[string]lockMode {
	out := cloneHeld(a)
	for k, v := range b {
		out[k] |= v
	}
	return out
}

func heldEqual(a, b map[string]lockMode) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
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

// access records one selector the walk reaches if it names a guarded
// field. A selector seen twice (a write target is also visited as an
// expression) keeps its first held set and becomes a write if either
// visit was one.
func (w *lockWalker) access(sel *ast.SelectorExpr, held map[string]lockMode, write bool) {
	fld, _ := w.node.Pkg.Info.ObjectOf(sel.Sel).(*types.Var)
	gf, isGuarded := w.guards[fld]
	if !isGuarded {
		return
	}
	if prev, seen := w.bySel[sel]; seen {
		prev.write = prev.write || write
		return
	}
	a := &guardedAccess{sel: sel, field: gf, held: cloneHeld(held), write: write}
	w.bySel[sel] = a
	w.summ.accesses = append(w.summ.accesses, a)
}

// markWrites records the write targets of an assignment or ++/--
// statement: each LHS is unwrapped through parens, indexing, and pointer
// dereference to the selector being written through (s.f = v, s.f[i] =
// v, *s.f = v all write through field f).
func (w *lockWalker) markWrites(s ast.Stmt, held map[string]lockMode) {
	var targets []ast.Expr
	switch x := s.(type) {
	case *ast.AssignStmt:
		targets = x.Lhs
	case *ast.IncDecStmt:
		targets = []ast.Expr{x.X}
	}
	for _, t := range targets {
		for t != nil {
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
		}
	}
}

// exprEdges snapshots the current held set at every resolved call edge
// and guarded-field access inside the expression (or statement).
// Function-literal interiors are excluded — literals are their own graph
// nodes with their own walk — and go edges snapshot empty (the spawnee
// starts with no locks).
func (w *lockWalker) exprEdges(n ast.Node, held map[string]lockMode) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectorExpr:
			w.access(x, held, false)
			return true
		case *ast.CallExpr:
			e := w.g.EdgeByCall[x]
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
		}
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
		return rootID(w.node.ID) + "." + v.Name(), true
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

var guardedByRe = regexp.MustCompile(`guarded by (\w+)`)

// guardTable resolves every "guarded by mu" annotation of the program
// to its fields. An annotation whose guard is not a sync.Mutex or
// sync.RWMutex field of the same struct is a finding.
func (la *lockAnalysis) guardTable(pkgs []*Package) map[*types.Var]guardedField {
	fields := map[*types.Var]guardedField{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				for _, field := range st.Fields.List {
					mu := guardAnnotation(field)
					if mu == "" {
						continue
					}
					if !structHasMutexField(pkg, st, mu) {
						la.finding(pkg, field.Pos(), "guarded-by comment names %q, which is not a sync.Mutex/RWMutex field of %s", mu, ts.Name.Name)
						continue
					}
					for _, name := range field.Names {
						fld, _ := pkg.Info.Defs[name].(*types.Var)
						if fld == nil {
							continue
						}
						fields[fld] = guardedField{
							typeName: ts.Name.Name,
							owner:    pkg.Path + "." + ts.Name.Name + "." + name.Name,
							lockID:   pkg.Path + "." + ts.Name.Name + "." + mu,
							guard:    mu,
						}
					}
				}
				return true
			})
		}
	}
	return fields
}

func guardAnnotation(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedByRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

func structHasMutexField(pkg *Package, st *ast.StructType, name string) bool {
	for _, field := range st.Fields.List {
		for _, n := range field.Names {
			if n.Name != name {
				continue
			}
			tv, ok := pkg.Info.Types[field.Type]
			if !ok {
				return false
			}
			return isNamed(tv.Type, "sync", "Mutex") || isNamed(tv.Type, "sync", "RWMutex")
		}
	}
	return false
}

func receiverTypeName(fd *ast.FuncDecl) string {
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.ParenExpr:
			t = x.X
		case *ast.IndexExpr: // generic receiver
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// atomicMixing finds fields accessed through sync/atomic package
// functions and reports every plain (non-atomic) access to them, naming
// the earliest atomic access.
func (la *lockAnalysis) atomicMixing(pkgs []*Package) {
	atomicOf := map[*types.Var]token.Position{}
	sanctioned := map[*ast.SelectorExpr]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if pkgPath, _, _, isFn := pkgFuncCall(pkg.Info, call); !isFn || pkgPath != "sync/atomic" {
					return true
				}
				for _, arg := range call.Args {
					u, ok := ast.Unparen(arg).(*ast.UnaryExpr)
					if !ok || u.Op != token.AND {
						continue
					}
					sel, ok := ast.Unparen(u.X).(*ast.SelectorExpr)
					if !ok {
						continue
					}
					fld, _ := pkg.Info.ObjectOf(sel.Sel).(*types.Var)
					if fld == nil || !fld.IsField() {
						continue
					}
					sanctioned[sel] = true
					w := pkg.Fset.Position(sel.Pos())
					if prev, seen := atomicOf[fld]; !seen || posLess(w, prev) {
						atomicOf[fld] = w
					}
				}
				return true
			})
		}
	}
	if len(atomicOf) == 0 {
		return
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || sanctioned[sel] {
					return true
				}
				fld, _ := pkg.Info.ObjectOf(sel.Sel).(*types.Var)
				w, isAtomic := atomicOf[fld]
				if fld == nil || !isAtomic {
					return true
				}
				la.finding(pkg, sel.Sel.Pos(),
					"%s is accessed with sync/atomic at %s:%d but plainly here (mixed atomic/non-atomic access has no consistent synchronization)",
					fieldOwnerID(fld), baseName(w.Filename), w.Line)
				return true
			})
		}
	}
}

// fieldOwnerID names a field type-level: "pkg.Type.field".
func fieldOwnerID(fld *types.Var) string {
	if fld.Pkg() == nil {
		return fld.Name()
	}
	// The owning named type is not recorded on the Var; scan the package
	// scope for the struct that declares it.
	scope := fld.Pkg().Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == fld {
				return fld.Pkg().Path() + "." + tn.Name() + "." + fld.Name()
			}
		}
	}
	return fld.Pkg().Path() + "." + fld.Name()
}

// Locks returns the lock analyzer. The analysis itself is whole-program
// and memoized on the Pass's Program; each pass reports only the
// findings positioned in its own package.
func Locks() *Analyzer {
	return &Analyzer{
		Name: "locks",
		Doc:  "guarded fields accessed without their lock, goroutine-reachable writes without the write lock, mixed atomic/plain access, lock-order cycles and self-deadlocks",
		Run: func(pass *Pass) {
			for _, f := range pass.Prog.lockAnalysisResult().findings {
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
