package lint

import "go/ast"

// The flow walker: the one interpreter of Go's statement-level control
// flow for the flow-ordered analyses. It walks a function body in
// statement order, forking the analysis state at if/else arms, switch
// and select clauses and loop bodies, and joining the paths that fall
// through. The rules:
//
//   - an arm that provably never falls through (return, a terminal call
//     such as panic or os.Exit, or a branch statement) drops out of the
//     join;
//   - break, continue and goto leave the linear flow: the path is gone
//     for join purposes (an under-approximation that only ever shrinks
//     must-facts, never inventing one);
//   - a switch without a default clause may run no case, so the entry
//     state joins the merge; a select without default blocks until some
//     clause runs, so it does not;
//   - a loop body is walked once, and the state after the loop joins the
//     entry state (zero iterations are possible) with the body's.

// flowRules is what one flow-ordered analysis supplies: its state's copy
// and join, and its transfer functions. A rule may update a state in
// place and return it, but join must leave both operands untouched.
type flowRules[S any] interface {
	clone(S) S
	join(a, b S) S
	// leaf applies a simple statement: expression, send, assignment,
	// declaration, inc/dec, return, defer or go, a select clause's
	// communication, and a type switch's guard.
	leaf(s ast.Stmt, st S) S
	// expr applies an expression evaluated for control: an if, for or
	// switch condition, a case label, or a range operand.
	expr(e ast.Expr, st S) S
}

// flowWalker walks statements under one analysis's rules.
type flowWalker[S any] struct {
	pkg   *Package
	rules flowRules[S]
}

// stmts walks a statement list and reports whether control provably
// never falls off its end.
func (w *flowWalker[S]) stmts(list []ast.Stmt, st S) (S, bool) {
	for _, s := range list {
		var term bool
		if st, term = w.stmt(s, st); term {
			return st, true
		}
	}
	return st, false
}

func (w *flowWalker[S]) stmt(s ast.Stmt, st S) (S, bool) {
	switch x := s.(type) {
	case *ast.BlockStmt:
		return w.stmts(x.List, st)

	case *ast.ExprStmt:
		return w.rules.leaf(s, st), isTerminalExpr(w.pkg, x.X)

	case *ast.ReturnStmt:
		return w.rules.leaf(s, st), true

	case *ast.AssignStmt, *ast.DeclStmt, *ast.IncDecStmt, *ast.SendStmt, *ast.DeferStmt, *ast.GoStmt:
		return w.rules.leaf(s, st), false

	case *ast.IfStmt:
		if x.Init != nil {
			st, _ = w.stmt(x.Init, st)
		}
		st = w.rules.expr(x.Cond, st)
		thenOut, thenTerm := w.stmts(x.Body.List, w.rules.clone(st))
		elseOut, elseTerm := st, false
		if x.Else != nil {
			elseOut, elseTerm = w.stmt(x.Else, w.rules.clone(st))
		}
		switch {
		case thenTerm && elseTerm:
			return st, true
		case thenTerm:
			return elseOut, false
		case elseTerm:
			return thenOut, false
		}
		return w.rules.join(thenOut, elseOut), false

	case *ast.ForStmt:
		if x.Init != nil {
			st, _ = w.stmt(x.Init, st)
		}
		if x.Cond != nil {
			st = w.rules.expr(x.Cond, st)
		}
		out, term := w.stmts(x.Body.List, w.rules.clone(st))
		if term {
			return st, false
		}
		if x.Post != nil {
			out, _ = w.stmt(x.Post, out)
		}
		return w.rules.join(st, out), false

	case *ast.RangeStmt:
		st = w.rules.expr(x.X, st)
		out, term := w.stmts(x.Body.List, w.rules.clone(st))
		if term {
			return st, false
		}
		return w.rules.join(st, out), false

	case *ast.SwitchStmt:
		if x.Init != nil {
			st, _ = w.stmt(x.Init, st)
		}
		if x.Tag != nil {
			st = w.rules.expr(x.Tag, st)
		}
		return w.clauses(x.Body.List, st, false)

	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			st, _ = w.stmt(x.Init, st)
		}
		st = w.rules.leaf(x.Assign, st)
		return w.clauses(x.Body.List, st, false)

	case *ast.SelectStmt:
		return w.clauses(x.Body.List, st, true)

	case *ast.BranchStmt:
		return st, true

	case *ast.LabeledStmt:
		return w.stmt(x.Stmt, st)
	}
	return st, false
}

// clauses walks switch or select clause bodies from a shared entry state
// and joins the ones that fall through. Case labels are evaluated on the
// entry state in clause order, each clause body starting from the state
// before its own labels.
func (w *flowWalker[S]) clauses(list []ast.Stmt, st S, isSelect bool) (S, bool) {
	var outs []S
	hasDefault := false
	for _, cl := range list {
		cst := w.rules.clone(st)
		var body []ast.Stmt
		switch c := cl.(type) {
		case *ast.CaseClause:
			hasDefault = hasDefault || c.List == nil
			for _, e := range c.List {
				st = w.rules.expr(e, st)
			}
			body = c.Body
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			} else {
				cst = w.rules.leaf(c.Comm, cst)
			}
			body = c.Body
		}
		if out, term := w.stmts(body, cst); !term {
			outs = append(outs, out)
		}
	}
	exhaustive := hasDefault || isSelect && len(list) > 0
	if len(outs) == 0 {
		return st, exhaustive
	}
	merged := outs[0]
	for _, o := range outs[1:] {
		merged = w.rules.join(merged, o)
	}
	if !exhaustive {
		merged = w.rules.join(merged, st)
	}
	return merged, false
}
