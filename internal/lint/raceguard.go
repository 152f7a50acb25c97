package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// raceguard: interprocedural shared-state race detection.
//
// mutexguard pins the documented lock discipline one method at a time
// and flow-insensitively: a Lock anywhere in the body counts. That is
// the right bar for sequential accessors, but the code the runtime race
// detector can only spot-check — everything reachable from a `go`
// statement — deserves the stronger, flow-ordered contract: a *write*
// to a "guarded by mu" field that executes on a spawned goroutine must
// happen while mu is actually held (Lock before the write on every
// path), not merely somewhere in the function.
//
// The analysis reuses the lockorder machinery:
//
//   - every function body is interpreted in statement order with the
//     held-set walker (branch merge by intersection, deferred unlocks
//     held to exit), the access hook recording which locks are held at
//     every guarded-field access;
//   - an entry-held fixpoint propagates lock context across call and
//     defer edges: a helper only ever called with mu held inherits
//     {mu} as its entry set, so factored-out mutation helpers do not
//     need a rename. `go` edges contribute the empty set — a spawned
//     goroutine holds nothing of its parent — which also grounds the
//     fixpoint for every go-reachable function;
//   - only functions reachable from a `go` edge (GoReachable) are
//     checked, and only writes are findings: a read-only racy access is
//     mutexguard's (and the race detector's) departement, while an
//     unguarded write is the corruption the serving layer cannot
//     tolerate. Methods suffixed "Locked" keep the documented
//     caller-holds-the-lock exemption.
//
// Lock and field identity are type-level ("pkg.Type.field"), exactly as
// in lockorder, so accesses through single-assignment aliases of the
// same struct type are checked without any points-to analysis.
//
// Atomics are modeled, not flagged: fields typed as sync/atomic values
// (atomic.Pointer, atomic.Int64, ...) are safe by construction — their
// only access path is the atomic method set, which is what makes the
// snapshot/serve lock-free fast paths pass this analyzer with zero
// annotations. What is a finding is *mixing*: a field accessed through
// sync/atomic package functions (atomic.AddInt64(&s.n, 1)) in one place
// and through a plain read or write in another has no consistent
// synchronization story, and every plain access is reported.

// raceFinding is one diagnostic-to-be, reported by the owning package's
// pass (keeps suppression and dedup per package, as in lockorder).
type raceFinding struct {
	pkg *Package
	pos token.Pos
	msg string
}

// raceAnalysis is the memoized whole-program result.
type raceAnalysis struct {
	findings []raceFinding
}

// raceAccess is one access to a guarded field with its flow state.
type raceAccess struct {
	node  *CGNode
	sel   *ast.SelectorExpr
	field *types.Var
	held  map[string]lockMode
	write bool
}

// raceAnalysisResult computes (once) the whole-program race analysis.
func (p *Program) raceAnalysisResult() *raceAnalysis {
	if p.races != nil {
		return p.races
	}
	ra := &raceAnalysis{}
	g := p.CallGraph()
	nodes := g.SortedNodes()

	guards := p.guardTableResult().fields
	atomicFields, atomicWitness := collectAtomicMixing(p.Pkgs, ra)

	// Per-function hooked walk: held sets at call edges (for the entry
	// fixpoint) plus every guarded-field access with its local held set.
	// The throwaway lockAnalysis absorbs the walker's ordering bookkeeping
	// without touching the real lockorder result.
	scratch := &lockAnalysis{edges: map[[2]string]*lockEdge{}}
	summ := map[*CGNode]*lockSummary{}
	var accesses []*raceAccess
	for _, n := range nodes {
		n := n
		w := &lockWalker{la: scratch, g: g, node: n, summ: &lockSummary{
			heldAt:   map[*CallEdge]map[string]lockMode{},
			acquires: map[string]lockMode{},
		}}
		bySel := map[*ast.SelectorExpr]*raceAccess{}
		w.access = func(sel *ast.SelectorExpr, held map[string]lockMode, write bool) {
			fld, _ := n.Pkg.Info.ObjectOf(sel.Sel).(*types.Var)
			if fld == nil || !fld.IsField() {
				return
			}
			if _, isGuarded := guards[fld]; !isGuarded {
				return
			}
			if prev, seen := bySel[sel]; seen {
				prev.write = prev.write || write
				return
			}
			a := &raceAccess{node: n, sel: sel, field: fld, held: cloneHeld(held), write: write}
			bySel[sel] = a
			accesses = append(accesses, a)
		}
		w.walk()
		summ[n] = w.summ
	}

	entry := raceEntryFixpoint(g, summ)

	// Findings: unguarded writes on goroutine-reachable paths.
	reach := g.GoReachable()
	for _, a := range accesses {
		witness := reach[a.node]
		if witness == nil || !a.write || lockedSuffix(a.node) {
			continue
		}
		gf := guards[a.field]
		ent, known := entry[a.node]
		if !known {
			continue // unreachable cycle: no grounded entry state, no claim
		}
		eff := unionHeld(ent, a.held)
		if eff[gf.lockID]&lockWrite != 0 {
			continue
		}
		spawn := a.node.Pkg.Fset.Position(witness.Pos)
		how := "without holding it"
		if eff[gf.lockID] != 0 {
			how = "holding only the read lock"
		}
		ra.finding(a.node.Pkg, a.sel.Sel.Pos(),
			"%s is guarded by %s but written %s in goroutine-reachable %s (spawned at %s:%d); lock %s for writes",
			gf.owner, gf.guard, how, a.node.ID, baseName(spawn.Filename), spawn.Line, gf.guard)
	}

	// Findings: plain accesses to atomically-accessed fields.
	for _, pa := range atomicFields {
		w := atomicWitness[pa.field]
		ra.finding(pa.pkg, pa.pos,
			"%s is accessed with sync/atomic at %s:%d but plainly here (mixed atomic/non-atomic access has no consistent synchronization)",
			fieldOwnerID(pa.field), baseName(w.Filename), w.Line)
	}

	sort.Slice(ra.findings, func(i, j int) bool {
		return ra.findings[i].pos < ra.findings[j].pos
	})
	p.races = ra
	return ra
}

func (ra *raceAnalysis) finding(pkg *Package, pos token.Pos, format string, args ...any) {
	ra.findings = append(ra.findings, raceFinding{pkg: pkg, pos: pos, msg: fmt.Sprintf(format, args...)})
}

// lockedSuffix reports whether the node (or, for a literal, its rooting
// declared function) carries the "Locked" caller-holds-the-lock naming
// convention.
func lockedSuffix(n *CGNode) bool {
	id := n.ID
	if i := indexByte(id, '$'); i >= 0 {
		id = id[:i]
	}
	return strings.HasSuffix(id, "Locked")
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

// plainAtomicAccess is one non-atomic access to a field that is accessed
// atomically elsewhere.
type plainAtomicAccess struct {
	pkg   *Package
	pos   token.Pos
	field *types.Var
}

// collectAtomicMixing finds fields accessed through sync/atomic package
// functions and returns every plain (non-atomic) access to them, plus
// the earliest atomic witness position per field for the message.
func collectAtomicMixing(pkgs []*Package, _ *raceAnalysis) ([]plainAtomicAccess, map[*types.Var]token.Position) {
	atomicOf := map[*types.Var]token.Position{}
	sanctioned := map[*ast.SelectorExpr]bool{}
	fieldOf := func(pkg *Package, e ast.Expr) (*ast.SelectorExpr, *types.Var) {
		u, ok := ast.Unparen(e).(*ast.UnaryExpr)
		if !ok || u.Op != token.AND {
			return nil, nil
		}
		sel, ok := ast.Unparen(u.X).(*ast.SelectorExpr)
		if !ok {
			return nil, nil
		}
		fld, _ := pkg.Info.ObjectOf(sel.Sel).(*types.Var)
		if fld == nil || !fld.IsField() {
			return nil, nil
		}
		return sel, fld
	}
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
					sel, fld := fieldOf(pkg, arg)
					if fld == nil {
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
		return nil, atomicOf
	}
	var plains []plainAtomicAccess
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || sanctioned[sel] {
					return true
				}
				fld, _ := pkg.Info.ObjectOf(sel.Sel).(*types.Var)
				if fld == nil {
					return true
				}
				if _, isAtomic := atomicOf[fld]; !isAtomic {
					return true
				}
				plains = append(plains, plainAtomicAccess{pkg: pkg, pos: sel.Sel.Pos(), field: fld})
				return true
			})
		}
	}
	return plains, atomicOf
}

// raceEntryFixpoint computes, for every function, the set of locks held
// on entry along *every* incoming edge: the meet (intersection) over
// call and defer edges of the caller's entry set united with the locks
// held at the call site. A `go` edge contributes the empty set, so a
// function with one starts empty, as does a function with no incoming
// edges (external callers hold nothing we can prove). Nodes only
// reachable through unresolved calls or dead cycles stay absent from the
// map — no grounded state, and the caller treats them as unknown rather
// than unlocked.
func raceEntryFixpoint(g *CallGraph, summ map[*CGNode]*lockSummary) map[*CGNode]map[string]lockMode {
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

// unionHeld merges two held sets, modes OR-ed.
func unionHeld(a, b map[string]lockMode) map[string]lockMode {
	out := make(map[string]lockMode, len(a)+len(b))
	for k, v := range a {
		out[k] |= v
	}
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

// RaceGuard returns the shared-state race analyzer. The analysis itself
// is whole-program and memoized on the Pass's Program; each pass reports
// only the findings positioned in its own package.
func RaceGuard() *Analyzer {
	return &Analyzer{
		Name: "raceguard",
		Doc:  "goroutine-reachable writes to guarded fields must hold the guard; no mixed atomic/plain field access",
		Run: func(pass *Pass) {
			ra := pass.Prog.raceAnalysisResult()
			for _, f := range ra.findings {
				if f.pkg == pass.Pkg {
					pass.Reportf(f.pos, "%s", f.msg)
				}
			}
		},
	}
}
