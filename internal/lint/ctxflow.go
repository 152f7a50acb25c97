package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ctxflow: a function that accepts a context.Context (or a done-channel)
// has promised its caller cancellation; dropping that context on a
// downstream call breaks the promise silently. Inside such functions the
// analyzer enforces three rules:
//
//   - no fresh roots: context.Background()/context.TODO() must not be
//     created — derive from the incoming ctx instead;
//   - forward on every context-aware edge: a call to a module-local
//     function that itself accepts a context must receive the incoming
//     ctx or something derived from it (context.WithCancel/WithTimeout/
//     ... results are tracked through local assignments);
//   - no blocking downgrades: a call to a module-local function or
//     method F whose package or receiver also declares FContext (the
//     context-less convenience wrapper, such as Pipeline.Step) is
//     flagged with the ctx-aware variant to use.
//
// The analysis is per function declaration, in source order; function
// literals inside the body share the declaration's derived-context set
// (closures capture ctx like any other variable).

// doneChanNames are the parameter names treated as shutdown channels
// when typed <-chan struct{}.
var doneChanNames = map[string]bool{"done": true, "stop": true, "quit": true, "closing": true}

// CtxFlow returns the context-propagation analyzer. module is the
// import-path prefix inside which callees are held to the forwarding and
// wrapper rules.
func CtxFlow(module string) *Analyzer {
	return &Analyzer{
		Name: "ctxflow",
		Doc:  "context-accepting functions must forward their context down every context-aware call edge",
		Run: func(pass *Pass) {
			for _, f := range pass.Pkg.Files {
				for _, decl := range f.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok || fd.Body == nil {
						continue
					}
					derived := ctxParams(pass.Pkg.Info, fd.Type)
					if len(derived) == 0 {
						continue
					}
					checkCtxBody(pass, fd.Body, derived, module)
				}
			}
		},
	}
}

// ctxParams seeds the derived set with the function's context-like
// parameters: context.Context values and <-chan struct{} shutdown
// channels with a conventional name.
func ctxParams(info *types.Info, ft *ast.FuncType) map[types.Object]bool {
	derived := map[types.Object]bool{}
	if ft.Params == nil {
		return derived
	}
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			obj := info.ObjectOf(name)
			if obj == nil {
				continue
			}
			if isCtxType(obj.Type()) || (doneChanNames[name.Name] && isDoneChan(obj.Type())) {
				derived[obj] = true
			}
		}
	}
	return derived
}

func isCtxType(t types.Type) bool { return isNamed(t, "context", "Context") }

func isDoneChan(t types.Type) bool {
	ch, ok := t.(*types.Chan)
	if !ok || ch.Dir() == types.SendOnly {
		return false
	}
	st, ok := ch.Elem().Underlying().(*types.Struct)
	return ok && st.NumFields() == 0
}

// checkCtxBody walks one context-accepting function body in source
// order, growing the derived set through assignments and enforcing the
// three rules at every call.
func checkCtxBody(pass *Pass, body *ast.BlockStmt, derived map[types.Object]bool, module string) {
	info := pass.Pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			// A literal with its own ctx parameter rebinds the name; its
			// parameter joins the derived set (it is context-like too).
			for obj := range ctxParams(info, x.Type) {
				derived[obj] = true
			}
			return true

		case *ast.AssignStmt:
			// ctx2, cancel := context.WithTimeout(ctx, d) — any LHS of a
			// context-like type whose RHS mentions a derived value is
			// itself derived. (Inspect visits in source order, so the
			// assignment is seen before uses of ctx2.)
			rhsDerived := false
			for _, r := range x.Rhs {
				if mentionsDerived(info, r, derived) {
					rhsDerived = true
					break
				}
			}
			if rhsDerived {
				for _, l := range x.Lhs {
					id, ok := l.(*ast.Ident)
					if !ok {
						continue
					}
					obj := info.ObjectOf(id)
					if obj != nil && (isCtxType(obj.Type()) || isDoneChan(obj.Type())) {
						derived[obj] = true
					}
				}
			}
			return true

		case *ast.CallExpr:
			checkCtxCall(pass, x, derived, module)
			return true
		}
		return true
	})
}

func checkCtxCall(pass *Pass, call *ast.CallExpr, derived map[types.Object]bool, module string) {
	info := pass.Pkg.Info

	// Rule 1: no fresh context roots inside a context-accepting function.
	if pkgPath, name, sel, ok := pkgFuncCall(info, call); ok && pkgPath == "context" {
		if name == "Background" || name == "TODO" {
			pass.Reportf(sel.Sel.Pos(),
				"context.%s() created inside a context-accepting function; derive from the incoming ctx instead", name)
		}
		return
	}

	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || !strings.HasPrefix(fn.Pkg().Path(), module) {
		return
	}

	// Rule 3: context-less convenience wrapper with a ctx-aware variant.
	if variant := contextVariant(fn); variant != "" {
		pass.Reportf(call.Lparen,
			"blocking call to %s drops the caller's context; use %s", fn.Name(), variant)
		return
	}

	// Rule 2: the callee accepts a context — one argument must carry the
	// incoming ctx or a derivation of it. An argument that itself mints a
	// fresh root is already reported by rule 1; don't double-report.
	if !funcAcceptsCtx(fn) {
		return
	}
	for _, arg := range call.Args {
		if mentionsDerived(info, arg, derived) || mintsFreshCtx(info, arg) {
			return
		}
	}
	pass.Reportf(call.Lparen,
		"call to %s does not forward the caller's context (pass ctx or a context derived from it)", fn.Name())
}

// contextVariant names fn's context-aware twin, FContext, declared in
// fn's package or on fn's receiver type ("T.FContext"); "" if none.
func contextVariant(fn *types.Func) string {
	name := fn.Name() + "Context"
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		if _, ok := fn.Pkg().Scope().Lookup(name).(*types.Func); ok {
			return name
		}
		return ""
	}
	obj, _, _ := types.LookupFieldOrMethod(sig.Recv().Type(), true, fn.Pkg(), name)
	if _, ok := obj.(*types.Func); !ok {
		return ""
	}
	if t := namedType(sig.Recv().Type()); t != nil {
		return t.Obj().Name() + "." + name
	}
	return name
}

// funcAcceptsCtx reports whether the callee's signature has a
// context.Context or shutdown-channel parameter.
func funcAcceptsCtx(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if isCtxType(p.Type()) || (doneChanNames[p.Name()] && isDoneChan(p.Type())) {
			return true
		}
	}
	return false
}

// mentionsDerived reports whether the expression references any object
// in the derived set.
func mentionsDerived(info *types.Info, e ast.Expr, derived map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.ObjectOf(id); obj != nil && derived[obj] {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// mintsFreshCtx reports whether the expression contains a
// context.Background()/TODO() call (rule 1 already covers it).
func mintsFreshCtx(info *types.Info, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if pkgPath, name, _, isFn := pkgFuncCall(info, call); isFn && pkgPath == "context" && (name == "Background" || name == "TODO") {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
