package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// topicflow: whole-program message-protocol analysis.
//
// The middleware's components talk to each other exclusively through
// bus topics, so the set of (publish, subscribe, request, respond)
// call sites IS the protocol — and a typo'd segment or a payload-type
// drift between a requester and its responder fails silently at
// runtime. topicflow recovers that protocol statically: it resolves
// the topic operand at every bus API call site to a *shape*, builds
// the global topic graph, and checks it with the bus's real wildcard
// semantics (bus.Match: "+" is one segment, a trailing "#" is any
// remainder).
//
// Topic shapes. A topic operand resolves to a sequence of segments,
// each one of:
//
//   - a literal ("register", "measure");
//   - "+" or "#", when written literally in a subscription pattern;
//   - abstract: a component the resolver cannot evaluate (a node ID
//     from a flag, a broker ID field). An abstract component is
//     assumed to be one non-empty, slash-free segment — the module's
//     IDs are — so "+/register" and "nc0/register" may match. The
//     resolver evaluates string literals and constants (via constant
//     folding), "+" concatenation, fmt.Sprintf with a constant format
//     (verbs become spliced sub-shapes or abstract segments), local
//     single-assignment variables, and module-local single-return
//     helper functions by inlining (which is why internal/bus/topics.go
//     centralizes topic construction: every helper resolves exactly).
//
// When a topic shape still references parameters of the enclosing
// function, the endpoint is *lifted* along the call graph's incoming
// edges, substituting each caller's argument shapes — so a forwarding
// wrapper like broker.request reports one endpoint per real call site,
// with that site's topic, body and reply operands. An operand that
// stays unresolved makes the endpoint opaque ("<dynamic>" in the
// dump): opaque publishes are exempt from checking, and an opaque
// subscription conservatively satisfies every publish/request.
//
// Checks, all deduplicated per endpoint and reported at the call site:
//
//   - invalid: a concrete topic (publish/request) with an
//     empty or wildcard segment; a pattern (subscribe/respond) with an
//     empty segment or a non-final "#" — both rejected by the bus at
//     runtime, caught here at compile time;
//   - orphan publish: no subscription or responder pattern may match;
//   - unanswered request: no responder or subscription may match the
//     request topic — the request can only ever time out;
//   - unrequested responder: a respond endpoint no request (or plain
//     publish) targets — dead protocol surface;
//   - payload mismatch: the request's body type vs. the type the paired
//     responder json.Unmarshals its body into, and the request's reply
//     destination type vs. the types the responder returns. Compared by
//     named type identity; anonymous types (struct{}{} pings) and
//     unresolvable handlers are skipped.

// TopicRole classifies what an endpoint does with its topic operand.
type TopicRole uint8

// Endpoint roles.
const (
	TopicPublish   TopicRole = iota // fire-and-forget publish (topic)
	TopicSubscribe                  // subscription (pattern)
	TopicRequest                    // request/reply initiator (topic)
	TopicRespond                    // request/reply responder (pattern)
)

func (r TopicRole) String() string {
	switch r {
	case TopicPublish:
		return "publish"
	case TopicSubscribe:
		return "subscribe"
	case TopicRequest:
		return "request"
	case TopicRespond:
		return "respond"
	}
	return "?"
}

// TopicRoot describes one bus API function whose call sites are
// protocol endpoints, keyed by FuncID in TopicConfig.Roots. Argument
// indexes are positional (receiver excluded); -1 means "not present".
type TopicRoot struct {
	Role       TopicRole
	TopicArg   int // topic/pattern operand
	BodyArg    int // request body operand, or -1
	OutArg     int // request reply-destination operand, or -1
	HandlerArg int // responder handler operand, or -1
}

// TopicConfig scopes the topicflow analysis: which functions are
// protocol roots, and which packages implement the transport itself
// (their bodies — the reply-channel plumbing inside the bus — are not
// protocol endpoints).
type TopicConfig struct {
	Roots    map[string]TopicRoot
	ImplPkgs []string
}

// --- shapes -----------------------------------------------------------------

type segKind uint8

const (
	segLit      segKind = iota // literal segment text
	segPlus                    // "+" written in a pattern
	segHash                    // "#" written in a pattern
	segAbstract                // unresolved component: one OR MORE unknown segments
)

type topicSeg struct {
	kind segKind
	lit  string
}

type topicShape struct{ segs []topicSeg }

// String renders the shape with abstract segments as "+": the dump
// groups by what an endpoint can match, and an unknown ID matches
// exactly what "+" does.
func (s topicShape) String() string {
	parts := make([]string, len(s.segs))
	for i, g := range s.segs {
		switch g.kind {
		case segPlus, segAbstract:
			parts[i] = "+"
		case segHash:
			parts[i] = "#"
		default:
			parts[i] = g.lit
		}
	}
	return strings.Join(parts, "/")
}

// shapeMayMatch mirrors bus.Match over shapes, conservatively: is there
// ANY concretization of the unknowns under which the pattern matches
// the topic? "+" matches exactly one segment and "#" any remainder
// (bus.Match semantics); an abstract component stands for a runtime ID,
// which — as the hierarchical broker/node IDs show ("lc0/nc0/n3") — may
// itself contain slashes, so it concretizes to one OR MORE segments. A
// "no match" answer here is therefore definite.
func shapeMayMatch(pat, top topicShape) bool {
	memo := map[[2]int]bool{}
	var rec func(i, j int) bool
	rec = func(i, j int) bool {
		key := [2]int{i, j}
		if v, ok := memo[key]; ok {
			return v
		}
		memo[key] = false // cycle guard; overwritten below
		v := shapeMayMatchAt(pat.segs, top.segs, i, j, rec)
		memo[key] = v
		return v
	}
	return rec(0, 0)
}

func shapeMayMatchAt(ps, ts []topicSeg, i, j int, rec func(int, int) bool) bool {
	if i < len(ps) && ps[i].kind == segHash {
		return true // "#" swallows any remainder, including none ("a/#" matches "a")
	}
	if i == len(ps) || j == len(ts) {
		return i == len(ps) && j == len(ts)
	}
	p, t := ps[i], ts[j]
	if t.kind == segPlus || t.kind == segHash {
		return true // wildcard in a topic: invalid, reported separately; stay permissive
	}
	switch {
	case p.kind == segAbstract && t.kind == segAbstract:
		return rec(i+1, j+1) || rec(i+1, j) || rec(i, j+1)
	case p.kind == segAbstract:
		// the abstract component consumes this segment and may extend
		return rec(i+1, j+1) || rec(i, j+1)
	case t.kind == segAbstract:
		return rec(i+1, j+1) || rec(i+1, j)
	case p.kind == segLit && p.lit != t.lit:
		return false
	default: // lit==lit or "+"-vs-lit: exactly one segment each
		return rec(i+1, j+1)
	}
}

// topicInvalidReason checks a concrete-topic shape against
// bus.ValidTopic; abstract segments are assumed valid IDs.
func topicInvalidReason(s topicShape) string {
	for _, g := range s.segs {
		switch {
		case g.kind == segLit && g.lit == "":
			return "empty segment"
		case g.kind == segPlus || g.kind == segHash:
			return "wildcard segment in a concrete topic"
		}
	}
	return ""
}

// patternInvalidReason checks a pattern shape against bus.ValidPattern.
func patternInvalidReason(s topicShape) string {
	for i, g := range s.segs {
		switch {
		case g.kind == segLit && g.lit == "":
			return "empty segment"
		case g.kind == segHash && i != len(s.segs)-1:
			return `"#" before the final segment`
		}
	}
	return ""
}

// --- operand resolution -----------------------------------------------------

type partKind uint8

const (
	partLit      partKind = iota // literal text
	partAbstract                 // unknown component (one or more segments)
	partParam                    // free parameter of the enclosing function
)

// topicPart is one component of a partially resolved topic operand.
type topicPart struct {
	kind  partKind
	lit   string
	param *types.Var
}

// shapeCtx is the resolution context: the function whose body the
// expression sits in, plus parameter substitutions for inlined helpers.
type shapeCtx struct {
	node *CGNode
	bind map[types.Object][]topicPart
}

const maxResolveDepth = 16

// topicResolver resolves topic-operand expressions to part sequences.
type topicResolver struct{ g *CallGraph }

// resolve returns the operand's parts, or ok=false when the expression
// is not statically evaluable at all (the caller decides whether that
// makes a sub-component abstract or the whole endpoint opaque).
func (r *topicResolver) resolve(ctx *shapeCtx, e ast.Expr, depth int) ([]topicPart, bool) {
	if depth > maxResolveDepth {
		return nil, false
	}
	info := ctx.node.Pkg.Info
	e = ast.Unparen(e)
	// Constant folding first: literals, named constants, and constant
	// concatenations all resolve in one step.
	if tv, ok := info.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		return []topicPart{{kind: partLit, lit: constant.StringVal(tv.Value)}}, true
	}
	switch x := e.(type) {
	case *ast.BinaryExpr:
		if x.Op != token.ADD {
			return nil, false
		}
		l := r.resolveComponent(ctx, x.X, depth)
		rr := r.resolveComponent(ctx, x.Y, depth)
		return append(l, rr...), true
	case *ast.CallExpr:
		if pkgPath, name, _, ok := pkgFuncCall(info, x); ok && pkgPath == "fmt" && name == "Sprintf" {
			return r.sprintfParts(ctx, x, depth)
		}
		return r.inlineCall(ctx, x, depth)
	case *ast.Ident:
		obj := info.ObjectOf(x)
		if obj == nil {
			return nil, false
		}
		if parts, ok := ctx.bind[obj]; ok {
			return parts, true
		}
		v, isVar := obj.(*types.Var)
		if !isVar {
			return nil, false
		}
		if paramIndexOf(ctx.node, v) >= 0 {
			return []topicPart{{kind: partParam, param: v}}, true
		}
		if !v.IsField() && v.Pkg() != nil && v.Parent() != v.Pkg().Scope() {
			return r.resolveLocal(ctx, obj, depth)
		}
		return nil, false
	}
	return nil, false
}

// resolveComponent resolves one sub-component of a concatenation: an
// unresolvable component degrades to a single abstract part instead of
// failing the whole operand.
func (r *topicResolver) resolveComponent(ctx *shapeCtx, e ast.Expr, depth int) []topicPart {
	if parts, ok := r.resolve(ctx, e, depth+1); ok {
		return parts
	}
	return []topicPart{{kind: partAbstract}}
}

// resolveLocal resolves a local variable bound exactly once in the
// enclosing body; anything rebound or range/multi-assigned stays
// unresolved.
func (r *topicResolver) resolveLocal(ctx *shapeCtx, obj types.Object, depth int) ([]topicPart, bool) {
	info := ctx.node.Pkg.Info
	var rhs ast.Expr
	count := 0
	ast.Inspect(ctx.node.Body(), func(m ast.Node) bool {
		switch a := m.(type) {
		case *ast.AssignStmt:
			for i, l := range a.Lhs {
				id, ok := l.(*ast.Ident)
				if !ok || info.ObjectOf(id) != obj {
					continue
				}
				count++
				if len(a.Rhs) == len(a.Lhs) {
					rhs = a.Rhs[i]
				} else {
					rhs = nil
				}
			}
		case *ast.ValueSpec:
			for i, nm := range a.Names {
				if info.ObjectOf(nm) != obj {
					continue
				}
				count++
				if i < len(a.Values) {
					rhs = a.Values[i]
				} else {
					rhs = nil
				}
			}
		case *ast.RangeStmt:
			if id, ok := a.Key.(*ast.Ident); ok && info.ObjectOf(id) == obj {
				count += 2 // loop-carried: never single-assignment
			}
			if id, ok := a.Value.(*ast.Ident); ok && info.ObjectOf(id) == obj {
				count += 2
			}
		}
		return true
	})
	if count != 1 || rhs == nil {
		return nil, false
	}
	return r.resolve(ctx, rhs, depth+1)
}

// sprintfParts evaluates fmt.Sprintf with a constant format string:
// literal text stays literal, %s/%v splice the argument's resolution
// (or an abstract segment), numeric and quoting verbs become abstract.
func (r *topicResolver) sprintfParts(ctx *shapeCtx, call *ast.CallExpr, depth int) ([]topicPart, bool) {
	info := ctx.node.Pkg.Info
	if len(call.Args) == 0 || call.Ellipsis != token.NoPos {
		return nil, false
	}
	tv, ok := info.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return nil, false
	}
	format := constant.StringVal(tv.Value)
	args := call.Args[1:]
	var parts []topicPart
	var lit []byte
	flush := func() {
		if len(lit) > 0 {
			parts = append(parts, topicPart{kind: partLit, lit: string(lit)})
			lit = lit[:0]
		}
	}
	argi := 0
	for i := 0; i < len(format); i++ {
		c := format[i]
		if c != '%' {
			lit = append(lit, c)
			continue
		}
		i++
		if i >= len(format) {
			return nil, false
		}
		if format[i] == '%' {
			lit = append(lit, '%')
			continue
		}
		for i < len(format) && strings.ContainsRune("+-# 0123456789.", rune(format[i])) {
			i++
		}
		if i >= len(format) {
			return nil, false
		}
		verb := format[i]
		if verb == '[' || verb == '*' || argi >= len(args) {
			return nil, false // explicit indexes, arg-widths, or too few args: bail
		}
		arg := args[argi]
		argi++
		flush()
		if verb == 's' || verb == 'v' {
			parts = append(parts, r.resolveComponent(ctx, arg, depth)...)
		} else {
			parts = append(parts, topicPart{kind: partAbstract})
		}
	}
	flush()
	return parts, true
}

// inlineCall resolves a call to a module-local function whose body is a
// single one-result return, by substituting the argument shapes — the
// topics.go helper pattern.
func (r *topicResolver) inlineCall(ctx *shapeCtx, call *ast.CallExpr, depth int) ([]topicPart, bool) {
	if call.Ellipsis != token.NoPos {
		return nil, false
	}
	fn := calleeFunc(ctx.node.Pkg.Info, call)
	if fn == nil {
		return nil, false
	}
	node := r.g.NodeFor(fn)
	if node == nil || node.Decl == nil {
		return nil, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Variadic() || sig.Params().Len() != len(call.Args) {
		return nil, false
	}
	if len(node.Decl.Body.List) != 1 {
		return nil, false
	}
	ret, ok := node.Decl.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return nil, false
	}
	bind := map[types.Object][]topicPart{}
	for i := 0; i < sig.Params().Len(); i++ {
		bind[sig.Params().At(i)] = r.resolveComponent(ctx, call.Args[i], depth)
	}
	return r.resolve(&shapeCtx{node: node, bind: bind}, ret.Results[0], depth+1)
}

// nodeSig returns the node's function signature.
func nodeSig(n *CGNode) *types.Signature {
	if n.Fn != nil {
		sig, _ := n.Fn.Type().(*types.Signature)
		return sig
	}
	sig, _ := n.Pkg.Info.TypeOf(n.Lit).(*types.Signature)
	return sig
}

// paramIndexOf returns v's positional index in n's signature (receiver
// excluded), or -1.
func paramIndexOf(n *CGNode, v *types.Var) int {
	sig := nodeSig(n)
	if sig == nil {
		return -1
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i) == v {
			return i
		}
	}
	return -1
}

// partsToShape finalizes parts into a segment shape: leftover params
// (an endpoint that could not lift further) degrade to abstract.
func partsToShape(parts []topicPart) topicShape {
	const hole = "\x00"
	var b strings.Builder
	for _, p := range parts {
		if p.kind == partLit {
			b.WriteString(p.lit)
		} else {
			b.WriteString(hole)
		}
	}
	raw := strings.Split(b.String(), "/")
	segs := make([]topicSeg, len(raw))
	for i, s := range raw {
		switch {
		case strings.Contains(s, hole):
			segs[i] = topicSeg{kind: segAbstract}
		case s == "+":
			segs[i] = topicSeg{kind: segPlus}
		case s == "#":
			segs[i] = topicSeg{kind: segHash}
		default:
			segs[i] = topicSeg{kind: segLit, lit: s}
		}
	}
	return topicShape{segs: segs}
}

// --- endpoint collection ----------------------------------------------------

// operand carries a body/out/handler expression with the package whose
// type info can evaluate it (lifting moves operands between packages).
type operand struct {
	expr ast.Expr
	pkg  *Package
}

// topicEndpoint is one protocol endpoint: a bus API call site (possibly
// lifted to the caller that supplies its topic) with its resolved shape.
type topicEndpoint struct {
	role     TopicRole
	pkg      *Package
	pos      token.Pos
	opaque   bool // topic operand not statically evaluable
	invalid  bool // shape fails the bus's validity rules
	shape    topicShape
	bodyType types.Type // request body static type, or nil
	outType  types.Type // request reply-destination element type, or nil
	handler  *CGNode    // responder handler, or nil
}

// topicFinding is one diagnostic-to-be, tagged with the package whose
// pass reports it.
type topicFinding struct {
	pkg *Package
	pos token.Pos
	msg string
}

// topicAnalysis is the memoized whole-program result.
type topicAnalysis struct {
	endpoints []*topicEndpoint
	findings  []topicFinding
}

const maxLiftDepth = 8

// topicAnalysisResult computes (once) the whole-program topic analysis.
func (p *Program) topicAnalysisResult(cfg *TopicConfig) *topicAnalysis {
	if p.topics != nil {
		return p.topics
	}
	ta := &topicAnalysis{}
	g := p.CallGraph()
	isImpl := pathMatcher(cfg.ImplPkgs...)
	res := &topicResolver{g: g}
	isRootFn := func(n *CGNode) bool {
		if n.Fn == nil {
			return false
		}
		_, ok := cfg.Roots[FuncID(n.Fn)]
		return ok
	}
	for _, n := range g.SortedNodes() {
		if isImpl(n.Pkg.Path) || isRootFn(n) {
			continue // transport internals and root bodies are not endpoints
		}
		node := n
		ast.Inspect(n.Body(), func(m ast.Node) bool {
			if _, isLit := m.(*ast.FuncLit); isLit {
				return false // literal interiors are their own graph nodes
			}
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(node.Pkg.Info, call)
			if fn == nil {
				return true
			}
			root, ok := cfg.Roots[FuncID(fn)]
			if !ok {
				return true
			}
			ta.collect(res, cfg, isImpl, node, call, root)
			return true
		})
	}
	ta.check()
	sort.Slice(ta.findings, func(i, j int) bool {
		if ta.findings[i].pos != ta.findings[j].pos {
			return ta.findings[i].pos < ta.findings[j].pos
		}
		return ta.findings[i].msg < ta.findings[j].msg
	})
	p.topics = ta
	return ta
}

// collect records one root call site, resolving its operands and
// lifting parametric shapes to real callers.
func (ta *topicAnalysis) collect(res *topicResolver, cfg *TopicConfig, isImpl func(string) bool, owner *CGNode, call *ast.CallExpr, root TopicRoot) {
	if root.TopicArg >= len(call.Args) {
		return
	}
	argOp := func(idx int) operand {
		if idx >= 0 && idx < len(call.Args) {
			return operand{expr: call.Args[idx], pkg: owner.Pkg}
		}
		return operand{}
	}
	parts, ok := res.resolve(&shapeCtx{node: owner}, call.Args[root.TopicArg], 0)
	if !ok {
		ta.endpoints = append(ta.endpoints, &topicEndpoint{
			role: root.Role, pkg: owner.Pkg, pos: call.Lparen, opaque: true,
		})
		return
	}
	ta.emit(res, cfg, isImpl, owner, call.Lparen, root, parts,
		argOp(root.BodyArg), argOp(root.OutArg), argOp(root.HandlerArg),
		0, map[*CGNode]bool{})
}

// emit finalizes the endpoint, or — when the shape still references
// parameters of the enclosing function — lifts it through every
// incoming call edge, substituting the caller's argument shapes and
// re-homing parameter-passed operands to the caller's expressions.
func (ta *topicAnalysis) emit(res *topicResolver, cfg *TopicConfig, isImpl func(string) bool,
	node *CGNode, pos token.Pos, root TopicRoot, parts []topicPart,
	body, out, handler operand, depth int, visited map[*CGNode]bool) {

	free := false
	for _, p := range parts {
		if p.kind == partParam && paramIndexOf(node, p.param) >= 0 {
			free = true
			break
		}
	}
	sig := nodeSig(node)
	if !free || depth >= maxLiftDepth || visited[node] || sig == nil || sig.Variadic() {
		ta.finalize(res, node, pos, root, parts, body, out, handler)
		return
	}
	var edges []*CallEdge
	for _, e := range node.In {
		if e.Call == nil || isImpl(e.Caller.Pkg.Path) {
			continue
		}
		if e.Caller.Fn != nil {
			if _, isRoot := cfg.Roots[FuncID(e.Caller.Fn)]; isRoot {
				continue
			}
		}
		if sig.Params().Len() != len(e.Call.Args) {
			continue // method value / mismatched call: cannot map args
		}
		edges = append(edges, e)
	}
	if len(edges) == 0 {
		ta.finalize(res, node, pos, root, parts, body, out, handler)
		return
	}
	visited[node] = true
	defer delete(visited, node)
	for _, e := range edges {
		cctx := &shapeCtx{node: e.Caller}
		bind := map[*types.Var][]topicPart{}
		for i := 0; i < sig.Params().Len(); i++ {
			bind[sig.Params().At(i)] = res.resolveComponent(cctx, e.Call.Args[i], 0)
		}
		var nparts []topicPart
		for _, p := range parts {
			if p.kind == partParam {
				if sub, ok := bind[p.param]; ok {
					nparts = append(nparts, sub...)
					continue
				}
			}
			nparts = append(nparts, p)
		}
		lift := func(op operand) operand {
			id, ok := op.expr.(*ast.Ident)
			if !ok || op.pkg == nil {
				return op
			}
			v, _ := op.pkg.Info.ObjectOf(id).(*types.Var)
			if v == nil {
				return op
			}
			if i := paramIndexOf(node, v); i >= 0 {
				return operand{expr: e.Call.Args[i], pkg: e.Caller.Pkg}
			}
			return op
		}
		ta.emit(res, cfg, isImpl, e.Caller, e.Pos, root, nparts,
			lift(body), lift(out), lift(handler), depth+1, visited)
	}
}

// finalize materializes one endpoint at its (possibly lifted) call site.
func (ta *topicAnalysis) finalize(res *topicResolver, node *CGNode, pos token.Pos, root TopicRoot,
	parts []topicPart, body, out, handler operand) {

	ep := &topicEndpoint{
		role: root.Role, pkg: node.Pkg, pos: pos, shape: partsToShape(parts),
	}
	if body.expr != nil {
		ep.bodyType = body.pkg.Info.TypeOf(body.expr)
	}
	if out.expr != nil {
		t := out.pkg.Info.TypeOf(out.expr)
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		ep.outType = t
	}
	if handler.expr != nil {
		ep.handler = resolveHandler(res.g, handler)
	}
	ta.endpoints = append(ta.endpoints, ep)
}

// resolveHandler maps a handler operand to its call-graph node: a
// declared function, a method value, or a function literal.
func resolveHandler(g *CallGraph, op operand) *CGNode {
	switch x := ast.Unparen(op.expr).(type) {
	case *ast.FuncLit:
		return g.NodeForLit(x)
	case *ast.Ident:
		if fn, ok := op.pkg.Info.Uses[x].(*types.Func); ok {
			return g.NodeFor(fn)
		}
	case *ast.SelectorExpr:
		if fn, ok := op.pkg.Info.Uses[x.Sel].(*types.Func); ok {
			return g.NodeFor(fn)
		}
	}
	return nil
}

// --- checks -----------------------------------------------------------------

// typeKey names a (possibly pointer-wrapped) named type for comparison
// and display; "" for anonymous or unknown types, which are never
// compared.
func typeKey(t types.Type) string {
	n := namedType(t)
	if n == nil || n.Obj().Pkg() == nil {
		return ""
	}
	return n.Obj().Pkg().Name() + "." + n.Obj().Name()
}

// handlerPayload is what a responder handler does with its payload:
// the type it decodes the request body into and the types it replies
// with.
type handlerPayload struct {
	decode  string
	replies []string
}

// handlerPayloadOf scans a handler body: json.Unmarshal(body, &x)
// against the handler's []byte parameter gives the decode type; return
// statements give the reply types. A handler with no []byte parameter
// is handed the body already decoded (its caller unmarshals envelope and
// body in one pass), so its last named-type parameter is the decode type.
func handlerPayloadOf(n *CGNode) handlerPayload {
	var hp handlerPayload
	sig := nodeSig(n)
	if sig == nil {
		return hp
	}
	var bodyParam *types.Var
	typedParam := ""
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if sl, ok := p.Type().(*types.Slice); ok {
			if b, ok := sl.Elem().(*types.Basic); ok && b.Kind() == types.Byte {
				bodyParam = p // last []byte parameter is the body
			}
		} else if k := typeKey(p.Type()); k != "" {
			typedParam = k
		}
	}
	if bodyParam == nil {
		hp.decode = typedParam
	}
	info := n.Pkg.Info
	seen := map[string]bool{}
	ast.Inspect(n.Body(), func(m ast.Node) bool {
		if _, isLit := m.(*ast.FuncLit); isLit {
			return false
		}
		switch x := m.(type) {
		case *ast.CallExpr:
			pkgPath, name, _, ok := pkgFuncCall(info, x)
			if !ok || pkgPath != "encoding/json" || name != "Unmarshal" || len(x.Args) != 2 {
				return true
			}
			id, ok := ast.Unparen(x.Args[0]).(*ast.Ident)
			if !ok || bodyParam == nil || info.ObjectOf(id) != bodyParam {
				return true
			}
			if k := typeKey(info.TypeOf(x.Args[1])); k != "" {
				hp.decode = k
			}
		case *ast.ReturnStmt:
			if len(x.Results) == 0 {
				return true
			}
			t := info.TypeOf(x.Results[0])
			if tup, ok := t.(*types.Tuple); ok && tup.Len() > 0 {
				t = tup.At(0).Type()
			}
			if k := typeKey(t); k != "" && !seen[k] {
				seen[k] = true
				hp.replies = append(hp.replies, k)
			}
		}
		return true
	})
	sort.Strings(hp.replies)
	return hp
}

// check runs every protocol check over the collected endpoint set.
func (ta *topicAnalysis) check() {
	var pats, reqs, resps []*topicEndpoint
	opaquePattern := false
	for _, ep := range ta.endpoints {
		if ep.opaque {
			if ep.role == TopicSubscribe || ep.role == TopicRespond {
				opaquePattern = true
			}
			continue
		}
		// Validity first; invalid endpoints are excluded from matching.
		var reason string
		if ep.role == TopicSubscribe || ep.role == TopicRespond {
			reason = patternInvalidReason(ep.shape)
		} else {
			reason = topicInvalidReason(ep.shape)
		}
		if reason != "" {
			ep.invalid = true
			ta.finding(ep, "statically invalid %s %s %q: %s", ep.role, kindWord(ep.role), ep.shape, reason)
			continue
		}
		switch ep.role {
		case TopicSubscribe, TopicRespond:
			pats = append(pats, ep)
			if ep.role == TopicRespond {
				resps = append(resps, ep)
			}
		case TopicRequest:
			reqs = append(reqs, ep)
		}
	}
	matchedByPattern := func(shape topicShape) bool {
		for _, p := range pats {
			if shapeMayMatch(p.shape, shape) {
				return true
			}
		}
		return false
	}
	for _, ep := range ta.endpoints {
		if ep.opaque || ep.invalid {
			continue
		}
		switch ep.role {
		case TopicPublish:
			if opaquePattern || matchedByPattern(ep.shape) {
				continue
			}
			ta.finding(ep, "publish on %q matches no subscription or responder pattern (orphan publish)", ep.shape)
		case TopicRequest:
			if !opaquePattern && !matchedByPattern(ep.shape) {
				ta.finding(ep, "request on %q has no matching responder or subscription: it can only time out (unanswered request)", ep.shape)
				continue
			}
			ta.payloadCheck(ep, resps)
		case TopicRespond:
			targeted := false
			for _, rq := range reqs {
				if shapeMayMatch(ep.shape, rq.shape) {
					targeted = true
					break
				}
			}
			if !targeted {
				for _, pb := range ta.endpoints {
					if pb.role == TopicPublish && !pb.opaque && !pb.invalid && shapeMayMatch(ep.shape, pb.shape) {
						targeted = true
						break
					}
				}
			}
			if !targeted {
				ta.finding(ep, "responder on %q is targeted by no request or publish (unrequested responder)", ep.shape)
			}
		}
	}
}

// payloadCheck compares a request's body/reply types against every
// responder its topic can reach.
func (ta *topicAnalysis) payloadCheck(req *topicEndpoint, resps []*topicEndpoint) {
	bodyKey := typeKey(req.bodyType)
	outKey := typeKey(req.outType)
	if bodyKey == "" && outKey == "" {
		return
	}
	for _, rp := range resps {
		if rp.handler == nil || !shapeMayMatch(rp.shape, req.shape) {
			continue
		}
		hp := handlerPayloadOf(rp.handler)
		at := rp.pkg.Fset.Position(rp.pos)
		where := fmt.Sprintf("%s:%d", baseName(at.Filename), at.Line)
		if bodyKey != "" && hp.decode != "" && bodyKey != hp.decode {
			ta.finding(req, "request on %q sends body type %s but the responder at %s decodes %s (payload mismatch)",
				req.shape, bodyKey, where, hp.decode)
		}
		if outKey != "" && len(hp.replies) > 0 {
			ok := false
			for _, rk := range hp.replies {
				if rk == outKey {
					ok = true
					break
				}
			}
			if !ok {
				ta.finding(req, "request on %q decodes the reply into %s but the responder at %s replies with %s (payload mismatch)",
					req.shape, outKey, where, strings.Join(hp.replies, ", "))
			}
		}
	}
}

func kindWord(r TopicRole) string {
	if r == TopicSubscribe || r == TopicRespond {
		return "pattern"
	}
	return "topic"
}

func (ta *topicAnalysis) finding(ep *topicEndpoint, format string, args ...any) {
	ta.findings = append(ta.findings, topicFinding{pkg: ep.pkg, pos: ep.pos, msg: fmt.Sprintf(format, args...)})
}

// TopicFlow returns the message-protocol analyzer. The analysis is
// whole-program and memoized on the Program; each pass reports only
// findings positioned in its own package.
func TopicFlow(cfg *TopicConfig) *Analyzer {
	return &Analyzer{
		Name: "topicflow",
		Doc:  "message-protocol topic graph: orphan publishes, unanswered requests, unrequested responders, invalid topics, payload mismatches",
		Run: func(pass *Pass) {
			ta := pass.Prog.topicAnalysisResult(cfg)
			for _, f := range ta.findings {
				if f.pkg == pass.Pkg {
					pass.Reportf(f.pos, "%s", f.msg)
				}
			}
		},
	}
}

// FormatTopicGraph renders the protocol topic graph as sorted,
// byte-stable text: one block per topic shape (opaque endpoints under
// "<dynamic>"), each endpoint line giving role, package, site, and —
// for requests and responders — the payload contract.
func FormatTopicGraph(prog *Program, cfg *TopicConfig) string {
	ta := prog.topicAnalysisResult(cfg)
	type row struct {
		sortKey string
		text    string
	}
	groups := map[string][]row{}
	for _, ep := range ta.endpoints {
		key := "<dynamic>"
		if !ep.opaque {
			key = ep.shape.String()
		}
		role := ep.role.String()
		at := ep.pkg.Fset.Position(ep.pos)
		site := fmt.Sprintf("%s:%d", baseName(at.Filename), at.Line)
		extra := ""
		switch ep.role {
		case TopicRequest:
			if k := typeKey(ep.bodyType); k != "" {
				extra += "  body=" + k
			}
			if k := typeKey(ep.outType); k != "" {
				extra += "  reply=" + k
			}
		case TopicRespond:
			if ep.handler != nil {
				extra = "  handler=" + ep.handler.ID
			}
		}
		text := fmt.Sprintf("  %-16s %s  %s%s\n", role, ep.pkg.Path, site, extra)
		groups[key] = append(groups[key], row{sortKey: role + "\x00" + ep.pkg.Path + "\x00" + site + extra, text: text})
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('\n')
		rows := groups[k]
		sort.Slice(rows, func(i, j int) bool { return rows[i].sortKey < rows[j].sortKey })
		for _, r := range rows {
			b.WriteString(r.text)
		}
	}
	return b.String()
}
