package lint

// Whole-module static call graph (DESIGN.md §12).
//
// The v1 linter checked each file in isolation, so a banned effect hidden
// one call deep was invisible: a sim handler calling a helper in a non-core
// package that reads time.Now corrupted determinism without a finding. The
// call graph makes the effect rules transitive. It is built once per Run
// over the type-checked module and answers two questions:
//
//   - which functions are *handler roots* — function values that the
//     discrete-event core will invoke as events (sim.Handler and
//     sim.ArgHandler values passed to the Schedule family, stored in
//     Handler/ArgHandler-typed fields, or registered as ShardSet globals);
//   - which functions each root *reaches*, through static calls, closure
//     creation, signature-matched dynamic calls through func-typed
//     variables and fields, and interface method dispatch resolved against
//     every implementing type in the module.
//
// Each node records its direct effects (wall-clock reads, ambient rand
// references, environment reads, map-order leaks, package-level variable
// writes, per-event closure scheduling, interface boxing at ScheduleArg
// sites, un-preallocated loop appends); rules pair an effect with
// reachability and report the full call chain from the nearest root.
//
// The resolution of dynamic calls is a conservative over-approximation: a
// call through a func-typed variable is assumed to reach every function
// value of identical signature that the module stores or passes anywhere
// ("address-taken" values). That is what makes a chain like
//
//	workload tick handler → Source.tick → emit (func field) →
//	runner.onArrival → sendClientPick → armRedundantTimer
//
// visible even though `emit` is an ordinary function-typed field.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// effectKind enumerates the direct effects recorded per graph node.
type effectKind int

const (
	effWallclock effectKind = iota
	effGlobalRand
	effGetenv
	effMapOrder
	effGlobalWrite
	effSchedClosure
	effBoxedArg
	effBareAppend
	effGoStmt
)

// effectSite is one direct effect inside a node's body.
type effectSite struct {
	kind effectKind
	pos  token.Pos
	desc string
}

// Root kinds: which scheduling surface turns a function into an event.
const (
	rootHandler    = "handler"    // sim.Handler (Schedule/ScheduleAt/MustSchedule)
	rootArgHandler = "arghandler" // sim.ArgHandler (ScheduleArg family incl. Lane, Send)
	rootGlobal     = "global"     // ShardSet.ScheduleGlobal barrier events
	// rootExchange marks the sharded coordinator's exchange drain: it runs
	// once per window over every buffered cross-partition message, so its
	// reach is hot-path even though no Schedule call names it. The builder
	// marks (*ShardSet).drain in the sim package directly.
	rootExchange = "exchange"
)

// Node is one function in the call graph: a declared function/method or a
// function literal.
type Node struct {
	name string
	pos  token.Pos
	pkg  *Package // nil for placeholder nodes of not-yet-walked packages
	file *File

	obj *types.Func  // non-nil for declared functions
	lit *ast.FuncLit // non-nil for literals

	calls   []*Node
	callSet map[*Node]bool

	effects []effectSite
	roots   map[string]bool // root kinds, nil when not a root
}

func (n *Node) addCall(to *Node) {
	if to == nil || to == n || n.callSet[to] {
		return
	}
	if n.callSet == nil {
		n.callSet = make(map[*Node]bool)
	}
	n.callSet[to] = true
	n.calls = append(n.calls, to)
}

func (n *Node) addEffect(kind effectKind, pos token.Pos, desc string) {
	n.effects = append(n.effects, effectSite{kind: kind, pos: pos, desc: desc})
}

func (n *Node) markRoot(kind string) {
	if n.roots == nil {
		n.roots = make(map[string]bool)
	}
	n.roots[kind] = true
}

// allowlisted reports whether the node lives in code that is permitted to
// use goroutines, channels, and sync primitives: the worker pool, the real
// UDP store, and the sharded engine's coordinator file.
func (n *Node) allowlisted() bool {
	if n.pkg == nil {
		return false
	}
	return allowlistedFile(n.pkg, n.file)
}

// pkgAllowlisted is the package-granular variant: true only for the
// fully-allowlisted packages, not for sim's shard.go, which hotalloc
// still covers through the exchange root.
func (n *Node) pkgAllowlisted() bool {
	return n.pkg != nil && allowlistedPackage(n.pkg)
}

// dynSite is a call through a func-typed expression, resolved against the
// address-taken pool by signature identity.
type dynSite struct {
	node *Node
	sig  *types.Signature
}

// ifaceSite is a call of an interface method, resolved against every
// module type implementing the interface.
type ifaceSite struct {
	node   *Node
	callee *types.Func
}

// valuedNode is an address-taken function value and its value-context
// signature (receiver-stripped for method values).
type valuedNode struct {
	node *Node
	sig  *types.Signature
}

// Graph is the module call graph. Build it through Analysis.Graph.
type Graph struct {
	nodes []*Node // deterministic construction order
	byObj map[*types.Func]*Node
	byLit map[*ast.FuncLit]*Node

	valued    []valuedNode
	valuedSet map[*Node]bool
	dynSites  []dynSite
	ifaces    []ifaceSite

	namedTypes []*types.Named // every named type of the module, for iface dispatch
}

// schedHandlerNames take a sim.Handler argument.
var schedHandlerNames = map[string]bool{
	"Schedule":     true,
	"ScheduleAt":   true,
	"MustSchedule": true,
}

// schedArgNames take a sim.ArgHandler plus a boxed `arg any` operand. The
// match is by method name on any sim receiver, so ScheduleArg covers both
// (*Engine).ScheduleArg and the fixed-delay (*Lane).ScheduleArg. A
// stream splits the pair: Engine.Stream takes the handler, which becomes
// a root, and Stream.Push each event's argument. Only an `any` last
// parameter is checked for boxing, so the name Stream, which RNG shares,
// reports no RNG stream index.
var schedArgNames = map[string]bool{
	"ScheduleArg":     true,
	"ScheduleArgAt":   true,
	"MustScheduleArg": true,
	"Send":            true,
	"MustSend":        true,
	"Stream":          true,
	"Push":            true,
}

// inModule reports whether a type-checker package belongs to the module
// under analysis; edges to the standard library are never useful (its
// ambient effects are caught at the call site by the selector scan).
func (p *Package) inModule(pkg *types.Package) bool {
	if pkg == nil {
		return false
	}
	path := pkg.Path()
	return path == p.Module || strings.HasPrefix(path, p.Module+"/")
}

// simPackagePath reports whether path is the deterministic engine package
// (the real module's internal/sim or a fixture's).
func simPackagePath(path string) bool {
	return path == "internal/sim" || strings.HasSuffix(path, "/internal/sim")
}

// handlerTypeKind classifies a type as sim.Handler or sim.ArgHandler by
// its named-type identity, returning the root kind or "".
func handlerTypeKind(t types.Type) string {
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil || !simPackagePath(obj.Pkg().Path()) {
		return ""
	}
	switch obj.Name() {
	case "Handler":
		return rootHandler
	case "ArgHandler":
		return rootArgHandler
	}
	return ""
}

// buildGraph constructs the call graph over every type-checked package.
func buildGraph(pkgs []*Package) *Graph {
	g := &Graph{
		byObj:     make(map[*types.Func]*Node),
		byLit:     make(map[*ast.FuncLit]*Node),
		valuedSet: make(map[*Node]bool),
	}
	for _, p := range pkgs {
		if p.Info == nil || p.Types == nil {
			continue
		}
		g.collectNamedTypes(p)
		for _, f := range p.Files {
			if f.Test {
				continue
			}
			for _, decl := range f.Ast.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					g.walkFuncDecl(p, f, d)
				case *ast.GenDecl:
					g.walkGenDecl(p, f, d)
				}
			}
		}
	}
	g.resolveDynamic()
	g.resolveInterfaces()
	return g
}

// collectNamedTypes gathers the package's named types for interface
// dispatch resolution.
func (g *Graph) collectNamedTypes(p *Package) {
	scope := p.Types.Scope()
	for _, name := range scope.Names() { // Names() is sorted
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if named, ok := tn.Type().(*types.Named); ok {
			g.namedTypes = append(g.namedTypes, named)
		}
	}
}

// nodeForObj returns (creating if needed) the node of a declared function.
func (g *Graph) nodeForObj(obj *types.Func) *Node {
	if n, ok := g.byObj[obj]; ok {
		return n
	}
	n := &Node{name: trimmedFuncName(obj), pos: obj.Pos(), obj: obj}
	g.byObj[obj] = n
	g.nodes = append(g.nodes, n)
	return n
}

// nodeForLit returns (creating if needed) the node of a function literal.
func (g *Graph) nodeForLit(p *Package, f *File, lit *ast.FuncLit, parent *Node) *Node {
	if n, ok := g.byLit[lit]; ok {
		return n
	}
	name := "func literal"
	if parent != nil {
		name = parent.name + ":func"
	}
	name = fmt.Sprintf("%s@%d", name, p.Fset.Position(lit.Pos()).Line)
	n := &Node{name: name, pos: lit.Pos(), pkg: p, file: f, lit: lit}
	g.byLit[lit] = n
	g.nodes = append(g.nodes, n)
	return n
}

// trimmedFuncName renders a function's full name without the module
// prefix: netrs/internal/cluster.(*runner).launchPick →
// internal/cluster.(*runner).launchPick.
func trimmedFuncName(obj *types.Func) string {
	name := obj.FullName()
	if pkg := obj.Pkg(); pkg != nil {
		path := pkg.Path()
		// Strip the module segment wherever it appears; methods render as
		// "(*module/pkg.T).m", so a prefix trim alone would miss them.
		if i := strings.Index(path, "/"); i > 0 {
			name = strings.Replace(name, path[:i+1], "", 1)
		}
	}
	return name
}

// walkFuncDecl builds the node of one declared function and scans its body.
func (g *Graph) walkFuncDecl(p *Package, f *File, d *ast.FuncDecl) {
	ident := d.Name
	obj, _ := p.Info.Defs[ident].(*types.Func)
	if obj == nil {
		return
	}
	n := g.nodeForObj(obj)
	n.pkg, n.file = p, f
	if isExchangeRoot(obj) {
		n.markRoot(rootExchange)
	}
	if d.Body != nil {
		g.walkBody(p, f, n, d.Body)
	}
}

// isExchangeRoot reports whether a declared function is the sharded
// engine's exchange drain, (*ShardSet).drain in the sim package: the
// per-window entry point of the cross-partition message path.
func isExchangeRoot(obj *types.Func) bool {
	if obj.Name() != "drain" || obj.Pkg() == nil || !simPackagePath(obj.Pkg().Path()) {
		return false
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "ShardSet"
}

// walkGenDecl scans package-level var initializers: function literals
// assigned there are anchored to a per-file init node so their effects and
// root registrations are not lost.
func (g *Graph) walkGenDecl(p *Package, f *File, d *ast.GenDecl) {
	if d.Tok != token.VAR {
		return
	}
	for _, spec := range d.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok || len(vs.Values) == 0 {
			continue
		}
		for i, name := range vs.Names {
			if i >= len(vs.Values) {
				break
			}
			g.recordAssignment(p, f, nil, name, vs.Values[i])
		}
		for _, v := range vs.Values {
			ast.Inspect(v, func(node ast.Node) bool {
				if lit, ok := node.(*ast.FuncLit); ok {
					ln := g.nodeForLit(p, f, lit, nil)
					g.walkBody(p, f, ln, lit.Body)
					return false
				}
				return true
			})
		}
	}
}

// walkBody scans a function body, maintaining the literal-node stack and
// loop depth, recording calls, effects, assignments, and roots.
func (g *Graph) walkBody(p *Package, f *File, root *Node, body *ast.BlockStmt) {
	cur := root
	var nodeStack []*Node
	loopDepth := 0
	var loopStack []int
	bareSlices := map[*Node]map[types.Object]bool{cur: {}}

	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			switch top.(type) {
			case *ast.FuncLit:
				cur = nodeStack[len(nodeStack)-1]
				nodeStack = nodeStack[:len(nodeStack)-1]
				loopDepth = loopStack[len(loopStack)-1]
				loopStack = loopStack[:len(loopStack)-1]
			case *ast.ForStmt, *ast.RangeStmt:
				loopDepth--
			}
			return true
		}
		stack = append(stack, n)
		switch v := n.(type) {
		case *ast.FuncLit:
			ln := g.nodeForLit(p, f, v, cur)
			cur.addCall(ln) // creation edge: the creator may invoke it
			nodeStack = append(nodeStack, cur)
			loopStack = append(loopStack, loopDepth)
			cur = ln
			loopDepth = 0
			if bareSlices[cur] == nil {
				bareSlices[cur] = map[types.Object]bool{}
			}
		case *ast.ForStmt:
			loopDepth++
		case *ast.RangeStmt:
			loopDepth++
			if p.isMapType(v.X) {
				if leak, _ := p.findOrderLeak(v); leak != "" {
					cur.addEffect(effMapOrder, v.Pos(),
						fmt.Sprintf("range over map %s %s", types.ExprString(v.X), leak))
				}
			}
		case *ast.SelectorExpr:
			g.recordSelectorEffect(p, f, cur, v)
		case *ast.CallExpr:
			g.walkCall(p, f, cur, v, loopDepth, bareSlices[cur])
		case *ast.GoStmt:
			cur.addEffect(effGoStmt, v.Pos(), "go statement")
		case *ast.DeclStmt:
			g.recordBareSliceDecl(p, v, bareSlices[cur])
			if gd, ok := v.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for i, name := range vs.Names {
							if i < len(vs.Values) {
								g.recordAssignment(p, f, cur, name, vs.Values[i])
							}
						}
					}
				}
			}
		case *ast.AssignStmt:
			g.walkAssign(p, f, cur, v, loopDepth, bareSlices[cur])
		case *ast.IncDecStmt:
			g.recordGlobalWrite(p, cur, v.X, v.Pos())
		case *ast.CompositeLit:
			g.walkCompositeLit(p, f, cur, v)
		}
		return true
	})
}

// recordSelectorEffect records ambient-input effects: wall-clock reads,
// references into the banned rand packages, and environment reads.
func (g *Graph) recordSelectorEffect(p *Package, f *File, cur *Node, sel *ast.SelectorExpr) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	obj := p.Info.Uses[id]
	pn, ok := obj.(*types.PkgName)
	if !ok {
		return
	}
	path := pn.Imported().Path()
	name := sel.Sel.Name
	switch {
	case path == "time" && wallClockBanned[name]:
		cur.addEffect(effWallclock, sel.Pos(), "time."+name)
	case bannedRandImports[path] != "":
		cur.addEffect(effGlobalRand, sel.Pos(), pathBase(path)+"."+name)
	case path == "os" && envReadNames[name]:
		cur.addEffect(effGetenv, sel.Pos(), "os."+name)
	}
}

// walkCall resolves one call expression: static edges, dynamic sites,
// interface sites, scheduling roots, and the hot-path allocation effects
// attached to scheduling calls.
func (g *Graph) walkCall(p *Package, f *File, cur *Node, call *ast.CallExpr, loopDepth int, bare map[types.Object]bool) {
	fun := ast.Unparen(call.Fun)
	var callee types.Object
	switch fn := fun.(type) {
	case *ast.Ident:
		callee = p.Info.Uses[fn]
	case *ast.SelectorExpr:
		callee = p.Info.Uses[fn.Sel]
	case *ast.FuncLit:
		// Immediately-invoked literal: the creation edge added when the
		// literal is entered already covers it.
		return
	}
	switch obj := callee.(type) {
	case *types.Func:
		sig, _ := obj.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
			g.ifaces = append(g.ifaces, ifaceSite{node: cur, callee: obj})
		} else if p.inModule(obj.Pkg()) {
			cur.addCall(g.nodeForObj(obj))
		}
		g.recordScheduleCall(p, f, cur, call, obj, loopDepth)
	case *types.Builtin:
		if obj.Name() == "append" {
			g.recordBareAppend(p, cur, call, loopDepth, bare)
		}
	case *types.Var, nil:
		// Call through a func-typed variable, field, or expression:
		// resolve by signature against the address-taken pool.
		if tv, ok := p.Info.Types[call.Fun]; ok {
			if sig, ok := tv.Type.Underlying().(*types.Signature); ok {
				g.dynSites = append(g.dynSites, dynSite{node: cur, sig: sig})
			}
		}
	}
	// Function values passed as ordinary arguments enter the
	// address-taken pool so dynamic calls can reach them.
	for _, arg := range call.Args {
		g.registerFuncValue(p, f, cur, arg)
	}
}

// recordScheduleCall handles a call of a sim scheduling method: its
// function-value arguments become handler roots, and the call site itself
// may carry hot-path allocation effects. Calls inside the engine package
// only forward one scheduling surface to another (ScheduleAt hands its
// Handler to ScheduleArgAt through a trampoline): the event is already
// rooted where the model scheduled it, so they register nothing.
func (g *Graph) recordScheduleCall(p *Package, f *File, cur *Node, call *ast.CallExpr, callee *types.Func, loopDepth int) {
	recv := callee.Type().(*types.Signature).Recv()
	if recv == nil || callee.Pkg() == nil || !simPackagePath(callee.Pkg().Path()) || simPackagePath(p.Path) {
		return
	}
	name := callee.Name()
	var kind string
	switch {
	case schedHandlerNames[name]:
		kind = rootHandler
	case schedArgNames[name]:
		kind = rootArgHandler
	case name == "ScheduleGlobal":
		kind = rootGlobal
	default:
		return
	}
	for _, arg := range call.Args {
		for _, vn := range g.funcValueNodes(p, f, cur, arg) {
			vn.markRoot(kind)
		}
	}
	if kind == rootHandler {
		for _, arg := range call.Args {
			if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok && capturesOuter(p, lit) {
				cur.addEffect(effSchedClosure, arg.Pos(),
					fmt.Sprintf("capturing closure passed to %s", name))
			}
		}
	}
	if params := callee.Type().(*types.Signature).Params(); kind == rootArgHandler && params.Len() > 0 &&
		len(call.Args) == params.Len() && types.IsInterface(params.At(params.Len()-1).Type()) {
		arg := call.Args[len(call.Args)-1]
		if desc := boxedArgDesc(p, arg); desc != "" {
			cur.addEffect(effBoxedArg, arg.Pos(),
				fmt.Sprintf("%s arg to %s boxes into an interface", desc, name))
		}
	}
}

// envReadNames are the os package's ambient environment reads.
var envReadNames = map[string]bool{
	"Getenv":    true,
	"LookupEnv": true,
	"Environ":   true,
	"ExpandEnv": true,
}

// boxedArgDesc describes a value whose conversion to `any` at a
// scheduling call allocates, or "" when the argument is pointer-shaped
// (pointer, interface, map, chan, func) or nil.
func boxedArgDesc(p *Package, arg ast.Expr) string {
	tv, ok := p.Info.Types[ast.Unparen(arg)]
	if !ok || tv.Type == nil {
		return ""
	}
	t := tv.Type
	if basic, ok := t.(*types.Basic); ok && basic.Kind() == types.UntypedNil {
		return ""
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Interface, *types.Map, *types.Chan, *types.Signature:
		return ""
	case *types.Basic:
		return "non-pointer " + t.String()
	default:
		return "non-pointer " + t.String()
	}
}

// capturesOuter reports whether the literal references variables declared
// outside it (package-level variables excluded: they are direct references,
// not captures).
func capturesOuter(p *Package, lit *ast.FuncLit) bool {
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := p.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return true // package-level: no capture cost
		}
		if v.Pos() < lit.Pos() || v.Pos() >= lit.End() {
			captured = true
		}
		return true
	})
	return captured
}

// recordBareSliceDecl collects `var x []T` declarations (no initializer):
// appends to them inside loops are the un-preallocated growth pattern.
func (g *Graph) recordBareSliceDecl(p *Package, ds *ast.DeclStmt, bare map[types.Object]bool) {
	gd, ok := ds.Decl.(*ast.GenDecl)
	if !ok || gd.Tok != token.VAR || bare == nil {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok || len(vs.Values) != 0 {
			continue
		}
		for _, name := range vs.Names {
			obj := p.Info.Defs[name]
			if obj == nil {
				continue
			}
			if _, isSlice := obj.Type().Underlying().(*types.Slice); isSlice {
				bare[obj] = true
			}
		}
	}
}

// recordBareAppend flags append calls, inside a loop, whose slice operand
// was declared bare in the same function.
func (g *Graph) recordBareAppend(p *Package, cur *Node, call *ast.CallExpr, loopDepth int, bare map[types.Object]bool) {
	if loopDepth == 0 || len(call.Args) == 0 || bare == nil {
		return
	}
	id := rootIdent(call.Args[0])
	if id == nil {
		return
	}
	obj := p.Info.Uses[id]
	if obj == nil || !bare[obj] {
		return
	}
	cur.addEffect(effBareAppend, call.Pos(),
		fmt.Sprintf("append to %s (declared without capacity) inside a loop", id.Name))
}

// walkAssign records func-value assignments (handler roots, address-taken
// pool) and package-level variable writes.
func (g *Graph) walkAssign(p *Package, f *File, cur *Node, as *ast.AssignStmt, loopDepth int, bare map[types.Object]bool) {
	for i, lhs := range as.Lhs {
		if i < len(as.Rhs) && len(as.Lhs) == len(as.Rhs) {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && as.Tok == token.DEFINE {
				g.recordAssignment(p, f, cur, id, as.Rhs[i])
			} else {
				g.recordAssignmentExpr(p, f, cur, lhs, as.Rhs[i])
			}
		}
		if as.Tok != token.DEFINE {
			g.recordGlobalWrite(p, cur, lhs, as.Pos())
		}
	}
	// `x := []T{}` and short-var bare slices: treat empty-literal declares
	// like bare declarations for the append heuristic.
	if as.Tok == token.DEFINE && bare != nil {
		for i, lhs := range as.Lhs {
			if i >= len(as.Rhs) {
				break
			}
			cl, ok := ast.Unparen(as.Rhs[i]).(*ast.CompositeLit)
			if !ok || len(cl.Elts) != 0 {
				continue
			}
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := p.Info.Defs[id]
			if obj == nil {
				continue
			}
			if _, isSlice := obj.Type().Underlying().(*types.Slice); isSlice {
				bare[obj] = true
			}
		}
	}
}

// recordAssignment handles `name := value` / `var name = value`.
func (g *Graph) recordAssignment(p *Package, f *File, cur *Node, name *ast.Ident, value ast.Expr) {
	obj := p.Info.Defs[name]
	if obj == nil {
		obj = p.Info.Uses[name]
	}
	g.recordFuncFlow(p, f, cur, obj, value)
}

// recordAssignmentExpr handles `expr = value` where expr may be a field
// selector or identifier.
func (g *Graph) recordAssignmentExpr(p *Package, f *File, cur *Node, lhs, value ast.Expr) {
	var obj types.Object
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		obj = p.Info.Uses[l]
		if obj == nil {
			obj = p.Info.Defs[l]
		}
	case *ast.SelectorExpr:
		obj = p.Info.Uses[l.Sel]
	}
	g.recordFuncFlow(p, f, cur, obj, value)
}

// recordFuncFlow registers a func value flowing into a variable or field:
// the value joins the address-taken pool, and assignment to a
// Handler/ArgHandler-typed destination makes it a handler root.
func (g *Graph) recordFuncFlow(p *Package, f *File, cur *Node, dest types.Object, value ast.Expr) {
	nodes := g.funcValueNodes(p, f, cur, value)
	if len(nodes) == 0 {
		return
	}
	v, ok := dest.(*types.Var)
	if !ok {
		return
	}
	if kind := handlerTypeKind(v.Type()); kind != "" {
		for _, n := range nodes {
			n.markRoot(kind)
		}
	}
}

// walkCompositeLit registers func values assigned to struct fields in
// keyed composite literals.
func (g *Graph) walkCompositeLit(p *Package, f *File, cur *Node, cl *ast.CompositeLit) {
	for _, elt := range cl.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		g.recordFuncFlow(p, f, cur, p.Info.Uses[key], kv.Value)
	}
}

// recordGlobalWrite records a write through an lvalue whose base resolves
// to a package-level variable.
func (g *Graph) recordGlobalWrite(p *Package, cur *Node, lhs ast.Expr, pos token.Pos) {
	id := rootIdent(lhs)
	if id == nil || id.Name == "_" {
		return
	}
	v, ok := p.Info.Uses[id].(*types.Var)
	if !ok || v.IsField() || v.Pkg() == nil {
		return
	}
	if v.Parent() != v.Pkg().Scope() {
		return
	}
	cur.addEffect(effGlobalWrite, pos, fmt.Sprintf("writes package-level variable %s", id.Name))
}

// funcValueNodes resolves an expression used as a function value to its
// graph nodes, registering them in the address-taken pool. A plain
// identifier or selector yields the declared function or, for a func-typed
// variable, nothing (the variable's assignees are already pooled).
func (g *Graph) funcValueNodes(p *Package, f *File, cur *Node, e ast.Expr) []*Node {
	e = ast.Unparen(e)
	var n *Node
	switch v := e.(type) {
	case *ast.FuncLit:
		n = g.nodeForLit(p, f, v, cur)
	case *ast.Ident:
		if fn, ok := p.Info.Uses[v].(*types.Func); ok && p.inModule(fn.Pkg()) {
			n = g.nodeForObj(fn)
		}
	case *ast.SelectorExpr:
		if fn, ok := p.Info.Uses[v.Sel].(*types.Func); ok && p.inModule(fn.Pkg()) {
			n = g.nodeForObj(fn)
		}
	}
	if n == nil {
		return nil
	}
	g.registerValued(p, e, n)
	return []*Node{n}
}

// registerFuncValue pools a function value used in an argument position.
func (g *Graph) registerFuncValue(p *Package, f *File, cur *Node, e ast.Expr) {
	g.funcValueNodes(p, f, cur, e)
}

// registerValued adds a node to the address-taken pool with the value
// expression's (receiver-stripped) signature.
func (g *Graph) registerValued(p *Package, e ast.Expr, n *Node) {
	if g.valuedSet[n] {
		return
	}
	var sig *types.Signature
	if tv, ok := p.Info.Types[e]; ok && tv.Type != nil {
		sig, _ = tv.Type.Underlying().(*types.Signature)
	}
	if sig == nil && n.obj != nil {
		sig, _ = n.obj.Type().(*types.Signature)
	}
	if sig == nil {
		return
	}
	g.valuedSet[n] = true
	g.valued = append(g.valued, valuedNode{node: n, sig: sig})
}

// resolveDynamic links every dynamic call site to each address-taken
// function value of identical signature.
func (g *Graph) resolveDynamic() {
	for _, site := range g.dynSites {
		for _, v := range g.valued {
			if types.Identical(site.sig, v.sig) {
				site.node.addCall(v.node)
			}
		}
	}
}

// resolveInterfaces links every interface-method call to the same-named
// method of each module type implementing the interface.
func (g *Graph) resolveInterfaces() {
	cache := make(map[*types.Func][]*Node)
	for _, site := range g.ifaces {
		targets, ok := cache[site.callee]
		if !ok {
			targets = g.implementations(site.callee)
			cache[site.callee] = targets
		}
		for _, t := range targets {
			site.node.addCall(t)
		}
	}
}

// implementations finds the concrete module methods an interface method
// may dispatch to.
func (g *Graph) implementations(m *types.Func) []*Node {
	recv := m.Type().(*types.Signature).Recv()
	iface, ok := recv.Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*Node
	for _, named := range g.namedTypes {
		if types.IsInterface(named) {
			continue
		}
		impl := types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface)
		if !impl {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, m.Pkg(), m.Name())
		if fn, ok := obj.(*types.Func); ok {
			if n, exists := g.byObj[fn]; exists {
				out = append(out, n)
			}
		}
	}
	return out
}

// reachEntry links a reached node back toward its root for chain
// reconstruction.
type reachEntry struct {
	node   *Node
	parent *reachEntry
}

// Reachable computes the set of nodes reachable from roots of the given
// kinds (empty = every root kind), mapping each to its BFS discovery entry.
// Iteration over the graph's node list keeps the result deterministic.
func (g *Graph) Reachable(kinds ...string) map[*Node]*reachEntry {
	want := func(n *Node) bool {
		if n.roots == nil {
			return false
		}
		if len(kinds) == 0 {
			return true
		}
		for _, k := range kinds {
			if n.roots[k] {
				return true
			}
		}
		return false
	}
	seen := make(map[*Node]*reachEntry)
	var queue []*reachEntry
	for _, n := range g.nodes {
		if want(n) {
			e := &reachEntry{node: n}
			seen[n] = e
			queue = append(queue, e)
		}
	}
	for len(queue) > 0 {
		e := queue[0]
		queue = queue[1:]
		for _, next := range e.node.calls {
			if _, ok := seen[next]; ok {
				continue
			}
			ne := &reachEntry{node: next, parent: e}
			seen[next] = ne
			queue = append(queue, ne)
		}
	}
	return seen
}

// Chain renders the root-to-node call chain of a reach entry.
func (e *reachEntry) Chain(fset *token.FileSet) []ChainStep {
	var rev []*Node
	for cur := e; cur != nil; cur = cur.parent {
		rev = append(rev, cur.node)
	}
	steps := make([]ChainStep, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		steps = append(steps, ChainStep{
			Pos:  fset.Position(rev[i].pos),
			Func: rev[i].name,
		})
	}
	return steps
}
