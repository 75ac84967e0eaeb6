package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// Hotpathalloc enforces the zero-allocation contract of functions marked
// with a //snn:hotpath directive comment (the LIF step kernel, in-place
// tensor kernels, replay inner loops, lock-free metric updates): inside
// such a function no heap allocation may appear — make/new/append
// builtins, composite literals, closures (func literals), interface
// conversions (including variadic ...any boxing) and variadic calls that
// materialize their argument slice are all flagged. The analysis is a
// conservative intra-procedural alloc lattice over go/types, with callee
// propagation one level deep: a hot-path function calling a
// module-internal function whose body allocates is flagged at the call
// site (callees that are themselves marked //snn:hotpath are checked in
// their own right and not re-analyzed).
//
// Error paths are exempt: allocations inside an if-branch that ends by
// calling panic or an allowlisted invariant helper (failf, checkf,
// must*, assertSameShape — the panicfree allowlist) do not count against
// the steady-state hot path.
var Hotpathalloc = &Analyzer{
	Name: "hotpathalloc",
	Doc:  "flags heap allocations (direct or one call deep) in //snn:hotpath functions",
	Run:  runHotpathalloc,
}

const hotpathDirective = "//snn:hotpath"

// isHotpath reports whether the function declaration carries the
// //snn:hotpath directive in its doc comment.
func isHotpath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == hotpathDirective || strings.HasPrefix(c.Text, hotpathDirective+" ") {
			return true
		}
	}
	return false
}

func runHotpathalloc(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotpath(fd) {
				continue
			}
			checkHotpathFunc(p, fd)
		}
	}
}

func checkHotpathFunc(p *Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	// Direct allocation sites in the hot-path body.
	forEachAlloc(p.Info, fd.Body, func(n ast.Node, kind string) {
		p.Reportf(n.Pos(), "snn:hotpath function %s contains %s; hot-path code must not allocate", name, kind)
	})
	// One-level propagation through module-internal callees.
	skip := failBranches(fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if skip[n] {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(p.Info, call)
		if fn == nil || !moduleInternalFunc(p, fn) {
			return true
		}
		decl, info := findFuncDecl(p, fn)
		if decl == nil || decl.Body == nil || isHotpath(decl) {
			return true
		}
		var first string
		forEachAlloc(info, decl.Body, func(an ast.Node, kind string) {
			if first == "" {
				first = kind
			}
		})
		if first != "" {
			p.Reportf(call.Pos(), "snn:hotpath function %s calls %s, which contains %s; mark the callee //snn:hotpath or make it allocation-free", name, fn.Name(), first)
		}
		return true
	})
}

// forEachAlloc invokes report for every conservative allocation site in
// body, pruning error branches that terminate in a panic helper.
func forEachAlloc(info *types.Info, body *ast.BlockStmt, report func(ast.Node, string)) {
	skip := failBranches(body)
	ast.Inspect(body, func(n ast.Node) bool {
		if skip[n] {
			return false
		}
		switch e := n.(type) {
		case *ast.CompositeLit:
			report(e, "a composite literal")
			return true
		case *ast.FuncLit:
			report(e, "a closure (func literal)")
			// The closure's own body runs under the closure's lifetime;
			// the capture itself is the allocation flagged here.
			return false
		case *ast.CallExpr:
			if b, ok := info.Uses[calleeIdent(e)].(*types.Builtin); ok {
				switch b.Name() {
				case "make", "new":
					report(e, fmt.Sprintf("a %s call", b.Name()))
				case "append":
					report(e, "an append (growth may reallocate)")
				}
				return true
			}
			checkCallAllocs(info, e, report)
			return true
		case *ast.AssignStmt:
			for i, rhs := range e.Rhs {
				if len(e.Lhs) != len(e.Rhs) {
					break
				}
				checkInterfaceConversion(info, typeOf(info, e.Lhs[i]), rhs, report)
			}
			return true
		case *ast.ValueSpec:
			for i, v := range e.Values {
				if i >= len(e.Names) {
					break
				}
				// Declared names live in Defs, not Types.
				if obj := info.Defs[e.Names[i]]; obj != nil {
					checkInterfaceConversion(info, obj.Type(), v, report)
				}
			}
			return true
		}
		return true
	})
}

// checkCallAllocs flags interface conversions and variadic slice
// materialization in one (non-builtin) call's arguments, and explicit
// conversions to interface types.
func checkCallAllocs(info *types.Info, call *ast.CallExpr, report func(ast.Node, string)) {
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		// Explicit conversion T(x).
		if len(call.Args) == 1 {
			checkInterfaceConversion(info, tv.Type, call.Args[0], report)
		}
		return
	}
	sig, ok := typeOf(info, call.Fun).(*types.Signature)
	if !ok || sig == nil {
		return
	}
	params := sig.Params()
	np := params.Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if call.Ellipsis.IsValid() {
				// Spreading an existing slice does not allocate.
				continue
			}
			slice, ok := params.At(np - 1).Type().(*types.Slice)
			if !ok {
				continue
			}
			pt = slice.Elem()
			if i == np-1 {
				report(arg, "a variadic call (argument slice is materialized)")
			}
		case i < np:
			pt = params.At(i).Type()
		default:
			continue
		}
		checkInterfaceConversion(info, pt, arg, report)
	}
}

// checkInterfaceConversion reports when a concrete-typed expression is
// converted to an interface type (boxing allocates when the value
// escapes; the lattice is conservative and flags the conversion itself).
func checkInterfaceConversion(info *types.Info, dst types.Type, src ast.Expr, report func(ast.Node, string)) {
	if dst == nil || !types.IsInterface(dst) {
		return
	}
	tv, ok := info.Types[src]
	if !ok || tv.Type == nil || tv.IsNil() || types.IsInterface(tv.Type) {
		return
	}
	report(src, fmt.Sprintf("an interface conversion (%s boxed into %s)", tv.Type, dst))
}

// failBranches marks the bodies of if-statements that terminate by
// panicking (directly or through an allowlisted invariant helper):
// error-path allocations do not count against the hot path.
func failBranches(body *ast.BlockStmt) map[ast.Node]bool {
	skip := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		if blockPanics(ifs.Body) {
			skip[ifs.Body] = true
		}
		return true
	})
	return skip
}

// blockPanics reports whether the block's final statement is a call to
// panic or to an allowlisted invariant helper (see panicfree).
func blockPanics(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	es, ok := b.List[len(b.List)-1].(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	id := calleeIdent(call)
	if id == nil {
		return false
	}
	return id.Name == "panic" || allowedPanicker(id.Name)
}

// calleeIdent returns the identifier a call expression invokes (the
// function name for plain calls, the selector name for method or
// package-qualified calls), or nil.
func calleeIdent(call *ast.CallExpr) *ast.Ident {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return f
	case *ast.SelectorExpr:
		return f.Sel
	}
	return nil
}

// calleeFunc resolves the called function or method object, or nil for
// builtins, conversions and indirect calls.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	id := calleeIdent(call)
	if id == nil {
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// moduleInternalFunc reports whether fn is declared in this module
// (including the package under analysis itself).
func moduleInternalFunc(p *Pass, fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	mod := p.Module
	return pkg.Path() == p.Path || pkg.Path() == mod.Path || strings.HasPrefix(pkg.Path(), mod.Path+"/")
}

// findFuncDecl locates fn's declaration and the types.Info of its
// package: the analyzed package itself, or any other module package.
// Positions are comparable because the whole module shares one FileSet.
func findFuncDecl(p *Pass, fn *types.Func) (*ast.FuncDecl, *types.Info) {
	search := func(files []*ast.File, info *types.Info) *ast.FuncDecl {
		for _, f := range files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Pos() == fn.Pos() {
					return fd
				}
			}
		}
		return nil
	}
	if fd := search(p.Files, p.Info); fd != nil {
		return fd, p.Info
	}
	if pkg, ok := p.Module.byPath[fn.Pkg().Path()]; ok {
		if fd := search(pkg.Files, pkg.Info); fd != nil {
			return fd, pkg.Info
		}
	}
	return nil, nil
}

// typeOf returns the static type of e, or nil.
func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}
