package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// MutexGuard enforces documented lock discipline: a struct field whose
// doc or line comment says "guarded by <mu>" may only be touched inside
// methods of that struct that lock <mu> (Lock or RLock, directly on the
// receiver) somewhere in their body. This pins exactly the class of bug
// the netsim -race stress test can only catch probabilistically: a new
// accessor that forgets the mutex.
//
// Conventions the check understands:
//
//   - <mu> must be a sibling field of type sync.Mutex, sync.RWMutex, or
//     a pointer to either; naming a non-existent or non-mutex field is
//     itself reported.
//   - Methods whose name ends in "Locked" are exempt — the suffix is
//     the project's documented "caller holds the lock" convention.
//   - The check is flow-insensitive (a lock anywhere in the method
//     satisfies it) and only inspects methods of the annotated type;
//     construction before the value escapes needs no lock and plain
//     functions are out of scope.
var mutexGuardRe = regexp.MustCompile(`guarded by (\w+)`)

func MutexGuard() *Analyzer {
	a := &Analyzer{
		Name: "mutexguard",
		Doc:  "fields documented as 'guarded by mu' may only be accessed in methods that lock mu",
	}
	a.Run = func(pass *Pass) {
		guards := pass.Prog.guardTableResult()
		for _, bad := range guards.malformed {
			if bad.pkg == pass.Pkg {
				pass.Reportf(bad.pos, "guarded-by comment names %q, which is not a sync.Mutex/RWMutex field of %s", bad.guard, bad.typeName)
			}
		}
		for _, f := range pass.Pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Recv == nil || fd.Body == nil {
					continue
				}
				checkGuardedMethod(pass, guards.fields, fd)
			}
		}
	}
	return a
}

// guardTable is every "guarded by mu" annotation of a program, resolved
// once for both analyzers that enforce it: mutexguard (per method,
// flow-insensitive) and raceguard (goroutine-reachable writes, flow
// ordered).
type guardTable struct {
	fields    map[*types.Var]guardedField
	malformed []malformedGuard // annotations naming no sibling mutex; mutexguard reports them
}

// guardedField is one "guarded by mu" annotation resolved to the owning
// struct and to type-level identities: the field, and the guard's lock
// ID in lockorder's naming scheme ("pkg.Type.mu").
type guardedField struct {
	typeName string // bare name of the owning struct type
	owner    string // "pkg.Type.field", for messages
	lockID   string // "pkg.Type.mu", matches lockWalker.lockID
	guard    string // bare guard field name, for messages
}

// malformedGuard is an annotation whose guard is not a sync.Mutex or
// sync.RWMutex field of the same struct.
type malformedGuard struct {
	pkg      *Package
	pos      token.Pos
	guard    string
	typeName string
}

// guardTableResult collects (once) the program's guard table.
func (p *Program) guardTableResult() *guardTable {
	if p.guards != nil {
		return p.guards
	}
	gt := &guardTable{fields: map[*types.Var]guardedField{}}
	for _, pkg := range p.Pkgs {
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
						gt.malformed = append(gt.malformed, malformedGuard{pkg: pkg, pos: field.Pos(), guard: mu, typeName: ts.Name.Name})
						continue
					}
					for _, name := range field.Names {
						fld, _ := pkg.Info.Defs[name].(*types.Var)
						if fld == nil {
							continue
						}
						gt.fields[fld] = guardedField{
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
	p.guards = gt
	return gt
}

func guardAnnotation(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := mutexGuardRe.FindStringSubmatch(cg.Text()); m != nil {
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

func checkGuardedMethod(pass *Pass, guarded map[*types.Var]guardedField, fd *ast.FuncDecl) {
	recvType := receiverTypeName(fd)
	if strings.HasSuffix(fd.Name.Name, "Locked") {
		return
	}
	recv := fd.Recv.List[0]
	if len(recv.Names) == 0 || recv.Names[0].Name == "_" {
		return
	}
	recvObj := pass.Pkg.Info.Defs[recv.Names[0]]
	if recvObj == nil {
		return
	}
	locked := lockedMutexes(pass, fd, recvObj)
	info := pass.Pkg.Info
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || info.ObjectOf(id) != recvObj {
			return true
		}
		fld, _ := info.ObjectOf(sel.Sel).(*types.Var)
		gf, isGuarded := guarded[fld]
		if !isGuarded || gf.typeName != recvType || locked[gf.guard] {
			return true
		}
		pass.Reportf(sel.Sel.Pos(), "%s.%s is guarded by %s, but method %s does not lock it (lock %s.%s, or suffix the method name with Locked if the caller holds it)",
			recvType, sel.Sel.Name, gf.guard, fd.Name.Name, id.Name, gf.guard)
		return true
	})
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

// lockedMutexes returns the set of receiver mutex fields the method
// locks anywhere in its body: recv.mu.Lock(), recv.mu.RLock(), either
// directly or in a defer.
func lockedMutexes(pass *Pass, fd *ast.FuncDecl, recvObj types.Object) map[string]bool {
	info := pass.Pkg.Info
	locked := map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		inner, ok := sel.X.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := inner.X.(*ast.Ident)
		if !ok || info.ObjectOf(id) != recvObj {
			return true
		}
		locked[inner.Sel.Name] = true
		return true
	})
	return locked
}
