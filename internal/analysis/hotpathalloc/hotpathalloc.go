// Package hotpathalloc enforces the zero-allocation budget of the
// per-cycle simulation step path (DESIGN.md §11/§13). Functions marked
// `//lint:hotpath` — the cores' step/advance entry points, plus every
// component the cycle loop leans on — and everything reachable from
// them inside a package must not contain allocation-inducing
// constructs: make/new, append that is not the self-reassignment
// capacity pattern (x = append(x, …) or the truncating x =
// append(x[:n], …)), map operations, closure literals, fmt calls,
// go/defer/channel operations, allocating string conversions, variadic
// calls, or interface boxing of non-pointer values. Arguments of panic
// calls are off-budget — a panic aborts the run.
//
// Cross-package calls are checked through facts: a hot function may only
// call module functions that are themselves hot-path-verified (their
// packages analyze first and export "fn:" facts) or cold (exported as
// "cold:" facts), or go through an interface marked `//lint:hotpath`
// (whose in-module implementations are checked where they are defined).
// Standard-library calls are trusted, except the fmt package.
//
// Escape hatches, each requiring a reason:
//   - `//lint:alloc <reason>` on the construct's line (or the line
//     above) waives one finding — used for abort/error paths and
//     deliberately amortized growth (arena refill, console output).
//   - `//lint:coldpath <reason>` on a function excludes it from
//     reachability, and calls into it (including their argument
//     construction) are off-budget — for diagnostics like deadlock
//     dumps and fault constructors that hot code calls only when the
//     simulation is already failing.
//
// Code dominated by a tracing-enabled guard (`if c.tr != nil { … }` or
// the tail of a function after `if c.tr == nil { return }`) is exempt:
// the allocation budget applies to the untraced fast path only, which
// is exactly how the dynamic TestSteadyStateAllocs budget measures it.
package hotpathalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"straight/internal/analysis/lint"
	"straight/internal/analysis/tracerguard"
)

// Analyzer is the hotpathalloc pass.
var Analyzer = &lint.Analyzer{
	Name: "hotpathalloc",
	Doc: "check that //lint:hotpath functions and their callees stay free of " +
		"allocation-inducing constructs (escapes: //lint:alloc, //lint:coldpath)",
	Run: run,
}

type checker struct {
	pass *lint.Pass
	ld   lint.LineDirectives

	funcDecls map[*types.Func]*ast.FuncDecl
	cold      map[*types.Func]bool
	hotIface  map[*types.TypeName]bool

	hot      map[*types.Func]bool
	worklist []*types.Func
}

func run(pass *lint.Pass) error {
	ck := &checker{
		pass:      pass,
		ld:        lint.CollectLineDirectives(pass.Fset, pass.Files),
		funcDecls: map[*types.Func]*ast.FuncDecl{},
		cold:      map[*types.Func]bool{},
		hotIface:  map[*types.TypeName]bool{},
		hot:       map[*types.Func]bool{},
	}

	// Index declarations and collect roots.
	hotTypes := map[*types.TypeName]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				fn, ok := pass.Info.Defs[d.Name].(*types.Func)
				if !ok {
					continue
				}
				ck.funcDecls[fn] = d
				if dir, ok := lint.FuncDirective(d, "coldpath"); ok {
					ck.cold[fn] = true
					pass.ExportFact("cold:"+lint.ObjectKey(fn), "cold")
					if dir.Reason == "" {
						pass.Reportf(dir.Pos, "//lint:coldpath on %s needs a reason", d.Name.Name)
					}
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					tn, ok := pass.Info.Defs[ts.Name].(*types.TypeName)
					if !ok {
						continue
					}
					if _, isIface := ts.Type.(*ast.InterfaceType); isIface {
						if _, ok := lint.TypeDirective(d, ts, "hotpath"); ok {
							ck.hotIface[tn] = true
							pass.ExportFact("iface:"+tn.Pkg().Path()+"."+tn.Name(), "hot")
						}
						continue
					}
					if _, ok := lint.TypeDirective(d, ts, "hotpath"); ok {
						hotTypes[tn] = true
					}
				}
			}
		}
	}
	// Roots: annotated functions, methods of annotated types, and
	// methods of local types implementing a hot interface.
	for fn, fd := range ck.funcDecls {
		if _, ok := lint.FuncDirective(fd, "hotpath"); ok {
			ck.addHot(fn)
			continue
		}
		if tn := receiverTypeName(fn); tn != nil && hotTypes[tn] {
			ck.addHot(fn)
		}
	}
	// Hot interfaces: local ones, plus those exported as facts by
	// dependencies (a local type implementing one must be verified here,
	// where its methods are defined).
	hotIfaceTypes := make([]*types.TypeName, 0, len(ck.hotIface))
	for tn := range ck.hotIface {
		hotIfaceTypes = append(hotIfaceTypes, tn)
	}
	for _, facts := range pass.DepFacts {
		for key := range facts {
			qual, ok := strings.CutPrefix(key, "iface:")
			if !ok {
				continue
			}
			dot := strings.LastIndex(qual, ".")
			if dot < 0 {
				continue
			}
			pkgPath, name := qual[:dot], qual[dot+1:]
			for _, imp := range pass.Pkg.Imports() {
				if imp.Path() != pkgPath {
					continue
				}
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok {
					hotIfaceTypes = append(hotIfaceTypes, tn)
				}
			}
		}
	}
	for _, itn := range hotIfaceTypes {
		iface, ok := itn.Type().Underlying().(*types.Interface)
		if !ok {
			continue
		}
		for fn := range ck.funcDecls {
			recv := receiverTypeName(fn)
			if recv == nil || recv.Pkg() != pass.Pkg {
				continue
			}
			if implements(recv, itn, iface) && hasMethodNamed(iface, fn.Name()) {
				ck.addHot(fn)
			}
		}
	}

	// Fixpoint: check each hot function, discovering intra-package
	// callees as we go.
	for len(ck.worklist) > 0 {
		fn := ck.worklist[len(ck.worklist)-1]
		ck.worklist = ck.worklist[:len(ck.worklist)-1]
		if fd := ck.funcDecls[fn]; fd != nil && fd.Body != nil {
			ck.checkFunc(fd)
		}
	}

	// Export the verified closure for downstream packages.
	for fn := range ck.hot {
		pass.ExportFact("fn:"+lint.ObjectKey(fn), "hot")
	}
	return nil
}

func (ck *checker) addHot(fn *types.Func) {
	fn = fn.Origin()
	if ck.hot[fn] || ck.cold[fn] {
		return
	}
	ck.hot[fn] = true
	ck.worklist = append(ck.worklist, fn)
}

// waived reports whether a //lint:alloc directive covers pos, checking
// its reason. One directive waives every finding on its line.
func (ck *checker) waived(pos token.Pos) bool {
	d, ok := ck.ld.At(ck.pass.Fset, pos, "alloc")
	if !ok {
		return false
	}
	if d.Reason == "" {
		ck.pass.Reportf(d.Pos, "//lint:alloc needs a reason")
	}
	return true
}

func (ck *checker) flag(pos token.Pos, format string, args ...any) {
	if ck.waived(pos) {
		return
	}
	ck.pass.Reportf(pos, format, args...)
}

// checkFunc scans one hot function body.
func (ck *checker) checkFunc(fd *ast.FuncDecl) {
	skip := ck.traceRegions(fd.Body)
	allowedAppend := map[*ast.CallExpr]bool{}

	lint.WalkStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		if skip[n] {
			return false
		}
		switch x := n.(type) {
		case *ast.FuncLit:
			ck.flag(x.Pos(), "closure literal in hot path allocates")
			return false
		case *ast.GoStmt:
			ck.flag(x.Pos(), "go statement in hot path allocates a goroutine")
			return false
		case *ast.DeferStmt:
			ck.flag(x.Pos(), "defer in hot path may allocate")
			return false
		case *ast.SendStmt:
			ck.flag(x.Pos(), "channel send in hot path")
		case *ast.SelectStmt:
			ck.flag(x.Pos(), "select in hot path")
		case *ast.CompositeLit:
			if tv, ok := ck.pass.Info.Types[x]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice:
					ck.flag(x.Pos(), "slice literal in hot path allocates")
				case *types.Map:
					ck.flag(x.Pos(), "map literal in hot path allocates")
				}
			}
		case *ast.RangeStmt:
			if tv, ok := ck.pass.Info.Types[x.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					ck.flag(x.Pos(), "range over map in hot path")
				}
			}
		case *ast.IndexExpr:
			if tv, ok := ck.pass.Info.Types[x.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					ck.flag(x.Pos(), "map access in hot path")
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD {
				if tv, ok := ck.pass.Info.Types[x]; ok && isString(tv.Type) {
					ck.flag(x.Pos(), "string concatenation in hot path allocates")
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range x.Rhs {
				if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && i < len(x.Lhs) {
					if isBuiltin(ck.pass.Info, call, "append") && len(call.Args) > 0 &&
						lint.ExprEqual(appendTarget(call.Args[0]), x.Lhs[i]) {
						allowedAppend[call] = true
					}
				}
			}
			ck.checkBoxingAssign(x)
		case *ast.ReturnStmt:
			ck.checkBoxingReturn(fd, x)
		case *ast.CallExpr:
			// Calls on the tracer itself (and their argument
			// construction) are the traced slow path.
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok &&
				tracerguard.IsTracerExpr(ck.pass.Info, ast.Unparen(sel.X)) {
				return false
			}
			// A panic aborts the run; its argument construction is
			// off-budget. Same for calls into //lint:coldpath functions.
			if isBuiltin(ck.pass.Info, x, "panic") {
				return false
			}
			if fn := calleeFunc(ck.pass.Info, ast.Unparen(x.Fun)); fn != nil && ck.isCold(fn) {
				return false
			}
			ck.checkCall(x, allowedAppend)
		}
		return true
	})
}

// isCold reports whether fn is marked //lint:coldpath, in this package
// or, through its exported fact, in a dependency.
func (ck *checker) isCold(fn *types.Func) bool {
	if fn.Pkg() == nil || fn.Pkg() == ck.pass.Pkg {
		return ck.cold[fn.Origin()]
	}
	_, ok := ck.pass.DepFact("cold:" + lint.ObjectKey(fn))
	return ok
}

// traceRegions computes the nodes that belong to the tracing-enabled
// path: then-branches of `if <tracer> != nil` and every statement after
// a terminating `if <tracer> == nil { return }` in the same block.
func (ck *checker) traceRegions(body *ast.BlockStmt) map[ast.Node]bool {
	skip := map[ast.Node]bool{}
	var scan func(list []ast.Stmt)
	scan = func(list []ast.Stmt) {
		tail := false
		for _, s := range list {
			if tail {
				skip[s] = true
				continue
			}
			if ifs, ok := s.(*ast.IfStmt); ok {
				if expr := ck.tracerNilCheck(ifs.Cond, token.NEQ); expr != nil {
					skip[ifs.Body] = true
				}
				if expr := ck.tracerNilCheck(ifs.Cond, token.EQL); expr != nil {
					if len(ifs.Body.List) > 0 && lint.Terminates(ifs.Body.List[len(ifs.Body.List)-1]) {
						tail = true
					}
				}
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.BlockStmt:
			scan(x.List)
		case *ast.CaseClause:
			scan(x.Body)
		case *ast.CommClause:
			scan(x.Body)
		}
		return true
	})
	return skip
}

// tracerNilCheck returns the tracer-typed expression compared against
// nil with op in cond, if any.
func (ck *checker) tracerNilCheck(cond ast.Expr, op token.Token) ast.Expr {
	cond = ast.Unparen(cond)
	b, ok := cond.(*ast.BinaryExpr)
	if !ok {
		return nil
	}
	if b.Op == op {
		for _, pair := range [2][2]ast.Expr{{b.X, b.Y}, {b.Y, b.X}} {
			if id, ok := ast.Unparen(pair[1]).(*ast.Ident); ok && id.Name == "nil" {
				if tracerguard.IsTracerExpr(ck.pass.Info, ast.Unparen(pair[0])) {
					return pair[0]
				}
			}
		}
	}
	if (op == token.NEQ && b.Op == token.LAND) || (op == token.EQL && b.Op == token.LOR) {
		if e := ck.tracerNilCheck(b.X, op); e != nil {
			return e
		}
		return ck.tracerNilCheck(b.Y, op)
	}
	return nil
}

func (ck *checker) checkCall(call *ast.CallExpr, allowedAppend map[*ast.CallExpr]bool) {
	fun := ast.Unparen(call.Fun)
	// Generic instantiation syntax F[T](…): the index base is itself of
	// function type (a slice/map of funcs is not, and stays dynamic).
	switch idx := fun.(type) {
	case *ast.IndexExpr:
		if isFuncExpr(ck.pass.Info, idx.X) {
			fun = ast.Unparen(idx.X)
		}
	case *ast.IndexListExpr:
		fun = ast.Unparen(idx.X)
	}

	// Conversions.
	if tv, ok := ck.pass.Info.Types[call.Fun]; ok && tv.IsType() {
		ck.checkConversion(call, tv.Type)
		return
	}

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := ck.pass.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				ck.flag(call.Pos(), "make in hot path allocates")
			case "new":
				ck.flag(call.Pos(), "new in hot path allocates")
			case "append":
				if !allowedAppend[call] {
					ck.flag(call.Pos(), "append result is not reassigned to its first argument (the capacity-reuse pattern); other forms allocate")
				}
			case "delete":
				ck.flag(call.Pos(), "map delete in hot path")
			}
			return
		}
	}

	fn := calleeFunc(ck.pass.Info, fun)
	if fn == nil {
		return // dynamic call through a func value: off-budget by contract
	}
	sig, _ := fn.Type().(*types.Signature)

	// Interface method calls dispatch dynamically: allowed only through
	// interfaces that are themselves hot-path-annotated (their in-module
	// implementations are verified where defined) or std interfaces.
	if sig != nil && sig.Recv() != nil {
		if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
			ck.checkIfaceCall(call, fn, sig)
			ck.checkBoxingCall(call)
			return
		}
	}

	pkg := fn.Pkg()
	switch {
	case pkg == nil:
		// Universe scope (error.Error): fine.
	case pkg == ck.pass.Pkg:
		fnO := fn.Origin()
		if !ck.cold[fnO] {
			ck.addHot(fnO)
		}
	case ck.inModule(pkg.Path()):
		key := "fn:" + lint.ObjectKey(fn)
		if _, ok := ck.pass.DepFact(key); !ok {
			ck.flag(call.Pos(), "hot path calls %s.%s which is not hot-path-verified (annotate it //lint:hotpath in its package)",
				pkg.Path(), fn.Name())
		}
	case pkg.Path() == "fmt":
		ck.flag(call.Pos(), "fmt.%s in hot path allocates", fn.Name())
	default:
		// Standard library: trusted (the dynamic allocation budget
		// covers it).
	}

	ck.checkBoxingCall(call)
	if sig != nil && sig.Variadic() && pkg != nil && pkg.Path() != "fmt" {
		if len(call.Args) >= sig.Params().Len() && call.Ellipsis == token.NoPos {
			ck.flag(call.Pos(), "variadic call to %s allocates its argument slice", fn.Name())
		}
	}
}

func (ck *checker) checkIfaceCall(call *ast.CallExpr, fn *types.Func, sig *types.Signature) {
	recvT := sig.Recv().Type()
	named, ok := recvT.(*types.Named)
	if !ok {
		// Receiver is the bare interface (method-set lookup); try the
		// selection's receiver expression type instead.
		if sel, okSel := ast.Unparen(call.Fun).(*ast.SelectorExpr); okSel {
			if s := ck.pass.Info.Selections[sel]; s != nil {
				named, _ = s.Recv().(*types.Named)
			}
		}
	}
	if named == nil || named.Obj().Pkg() == nil {
		ck.flag(call.Pos(), "hot path calls %s through an unnamed interface (cannot verify implementations)", fn.Name())
		return
	}
	tn := named.Origin().Obj()
	switch {
	case tn.Pkg() == ck.pass.Pkg:
		if !ck.hotIface[tn] {
			ck.flag(call.Pos(), "hot path calls %s through interface %s which is not marked //lint:hotpath", fn.Name(), tn.Name())
		}
	case ck.inModule(tn.Pkg().Path()):
		if _, ok := ck.pass.DepFact("iface:" + tn.Pkg().Path() + "." + tn.Name()); !ok {
			ck.flag(call.Pos(), "hot path calls %s through interface %s.%s which is not marked //lint:hotpath",
				fn.Name(), tn.Pkg().Path(), tn.Name())
		}
	default:
		// Standard-library interface: trusted.
	}
}

func (ck *checker) checkConversion(call *ast.CallExpr, to types.Type) {
	if len(call.Args) != 1 {
		return
	}
	from, ok := ck.pass.Info.Types[call.Args[0]]
	if !ok {
		return
	}
	switch {
	case isString(to) && isByteOrRuneSlice(from.Type):
		ck.flag(call.Pos(), "string(%s) conversion in hot path allocates", from.Type)
	case isByteOrRuneSlice(to) && isString(from.Type):
		ck.flag(call.Pos(), "%s(string) conversion in hot path allocates", to)
	case isInterface(to) && boxes(from.Type):
		ck.flag(call.Pos(), "conversion to interface %s boxes a non-pointer value", to)
	}
}

// checkBoxingCall flags arguments whose passing converts a non-pointer
// concrete value to an interface parameter (heap boxing).
func (ck *checker) checkBoxingCall(call *ast.CallExpr) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
		return // crash path
	}
	tv, ok := ck.pass.Info.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		var paramT types.Type
		if sig.Variadic() && i >= sig.Params().Len()-1 {
			if call.Ellipsis != token.NoPos {
				continue
			}
			last := sig.Params().At(sig.Params().Len() - 1).Type()
			sl, ok := last.(*types.Slice)
			if !ok {
				continue
			}
			paramT = sl.Elem()
		} else if i < sig.Params().Len() {
			paramT = sig.Params().At(i).Type()
		} else {
			continue
		}
		ck.checkBoxingAt(arg.Pos(), paramT, arg)
	}
}

func (ck *checker) checkBoxingAssign(as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		lt, ok := ck.pass.Info.Types[lhs]
		if !ok {
			continue
		}
		ck.checkBoxingAt(as.Rhs[i].Pos(), lt.Type, as.Rhs[i])
	}
}

func (ck *checker) checkBoxingReturn(fd *ast.FuncDecl, ret *ast.ReturnStmt) {
	fn, ok := ck.pass.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	res := fn.Type().(*types.Signature).Results()
	if len(ret.Results) != res.Len() {
		return
	}
	for i, r := range ret.Results {
		ck.checkBoxingAt(r.Pos(), res.At(i).Type(), r)
	}
}

func (ck *checker) checkBoxingAt(pos token.Pos, target types.Type, val ast.Expr) {
	if target == nil || !isInterface(target) {
		return
	}
	tv, ok := ck.pass.Info.Types[val]
	if !ok || tv.IsNil() {
		return
	}
	// Constants convert to interface through static data, no allocation.
	if tv.Value != nil {
		return
	}
	if boxes(tv.Type) {
		ck.flag(pos, "%s value boxed into interface %s in hot path", tv.Type, target)
	}
}

// boxes reports whether storing a value of type t in an interface
// requires a heap allocation: anything that does not fit the interface
// data word (pointers, channels, maps, funcs, unsafe pointers fit).
func boxes(t types.Type) bool {
	if t == nil || isInterface(t) {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Basic:
		return u.Kind() != types.UnsafePointer
	}
	return true
}

func isInterface(t types.Type) bool {
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.String
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}

// appendTarget unwraps the first append argument for the capacity-reuse
// comparison: append(x[:0], …) and append(x[:n], …) write into x's
// backing array, so reassignment to x reuses it just like append(x, …).
func appendTarget(e ast.Expr) ast.Expr {
	if sl, ok := ast.Unparen(e).(*ast.SliceExpr); ok {
		return sl.X
	}
	return e
}

func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

func isFuncExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok {
		return false
	}
	_, ok = tv.Type.Underlying().(*types.Signature)
	return ok
}

// calleeFunc resolves the *types.Func a call expression statically
// targets, nil for dynamic calls through func values.
func calleeFunc(info *types.Info, fun ast.Expr) *types.Func {
	switch x := fun.(type) {
	case *ast.Ident:
		fn, _ := info.Uses[x].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if s := info.Selections[x]; s != nil {
			if fn, ok := s.Obj().(*types.Func); ok {
				return fn
			}
			return nil // field of func type: dynamic
		}
		fn, _ := info.Uses[x.Sel].(*types.Func)
		return fn
	}
	return nil
}

func receiverTypeName(fn *types.Func) *types.TypeName {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	return named.Origin().Obj()
}

func implements(tn, ifaceTN *types.TypeName, iface *types.Interface) bool {
	t := tn.Type()
	if types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface) {
		return true
	}
	// A generic hot interface (e.g. engine.Policy[I]) cannot be checked
	// with types.Implements against a concrete receiver — its method
	// signatures mention the type parameter. Fall back to method-set
	// coverage: a type providing every method name of the interface is
	// treated as an implementation (false positives only widen lint
	// coverage, they cannot hide an allocation).
	named, ok := ifaceTN.Type().(*types.Named)
	if !ok || named.TypeParams().Len() == 0 {
		return false
	}
	ms := types.NewMethodSet(types.NewPointer(t))
	for i := 0; i < iface.NumMethods(); i++ {
		if ms.Lookup(tn.Pkg(), iface.Method(i).Name()) == nil {
			return false
		}
	}
	return iface.NumMethods() > 0
}

func hasMethodNamed(iface *types.Interface, name string) bool {
	for i := 0; i < iface.NumMethods(); i++ {
		if iface.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// inModule distinguishes this module's packages (whose functions must
// carry hot-path facts) from the trusted standard library. The driver
// hands every module dependency a DepFacts entry, empty or not; the
// path-prefix check is a belt-and-braces fallback.
func (ck *checker) inModule(path string) bool {
	if _, ok := ck.pass.DepFacts[path]; ok {
		return true
	}
	return path == "straight" || strings.HasPrefix(path, "straight/")
}
