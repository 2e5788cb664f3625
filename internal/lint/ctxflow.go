package lint

import (
	"go/ast"
	"go/types"
)

// CtxFlow enforces the serving-path cancellation contract (PR 8): once a
// request's context enters the read path, it must reach every blocking
// call below, because a deadline or client hang-up only frees the worker
// pool if the scan it cancels actually sees it. Scoped to the packages
// the request path crosses — server, sisg, knn — it reports:
//
//   - context.Background() / context.TODO(): a detached context in a
//     request-path package severs the cancellation chain. Deprecated
//     compatibility wrappers that deliberately detach carry an allow.
//   - a context.Context struct field: contexts flow through call
//     parameters; parking one in a struct outlives the request and is
//     invisible to this analysis.
//   - a function that receives a ctx (a context.Context parameter or an
//     *http.Request) calling a blocking callee that accepts a ctx without
//     passing its own along — the call-graph layer decides "blocking",
//     so the check crosses helpers without any per-function annotation.
//
// "Its own" includes derived contexts: locals assigned from the source
// (ctx2 := context.WithTimeout(ctx, d), ctx := r.Context()) count, to any
// chain depth within the function.
func CtxFlow() *Analyzer {
	return &Analyzer{
		Name: "ctxflow",
		Run:  runCtxFlow,
	}
}

func runCtxFlow(m *Module, pkg *Package) []Diagnostic {
	if !scopedTo(m, pkg, "server", "sisg", "knn") {
		return nil
	}
	fl := m.Flow()
	var out []Diagnostic
	for _, f := range pkg.Files {
		for _, decl := range f.AST.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				out = append(out, ctxStructFields(m, pkg, d)...)
			case *ast.FuncDecl:
				if d.Body == nil {
					continue
				}
				sources := make(map[types.Object]bool)
				if fi := fl.FuncOf(funcObj(pkg, d)); fi != nil {
					if fi.CtxParam != nil {
						sources[fi.CtxParam] = true
					}
					if fi.ReqParam != nil {
						sources[fi.ReqParam] = true
					}
				}
				out = append(out, ctxFlowScope(m, pkg, d.Body, sources)...)
			}
		}
	}
	return out
}

// funcObj resolves a declaration to its function object.
func funcObj(pkg *Package, d *ast.FuncDecl) *types.Func {
	fn, _ := pkg.Info.Defs[d.Name].(*types.Func)
	return fn
}

// ctxStructFields flags context.Context fields in struct type
// declarations.
func ctxStructFields(m *Module, pkg *Package, d *ast.GenDecl) []Diagnostic {
	var out []Diagnostic
	for _, spec := range d.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			continue
		}
		for _, field := range st.Fields.List {
			if !isContextType(pkg.Info.TypeOf(field.Type)) {
				continue
			}
			name := "(embedded)"
			if len(field.Names) > 0 {
				name = field.Names[0].Name
			}
			out = append(out, Diagnostic{
				Pos: m.Fset.Position(field.Pos()),
				Message: "context.Context stored in struct field " + name +
					" of " + ts.Name.Name + "; contexts flow through call parameters, not structs",
			})
		}
	}
	return out
}

// ctxFlowScope walks one function (or literal) body. sources is the set
// of objects a context argument may legitimately derive from: the ctx and
// *http.Request parameters plus, after addDerived, every ctx-typed local
// assigned from them. A nested literal inherits the set (it closes over
// those locals) and contributes its own ctx parameter if it has one.
func ctxFlowScope(m *Module, pkg *Package, body ast.Node, sources map[types.Object]bool) []Diagnostic {
	fl := m.Flow()
	addDerived(pkg.Info, body, sources)
	var out []Diagnostic
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			inner := make(map[types.Object]bool, len(sources)+1)
			for o := range sources {
				inner[o] = true
			}
			if sig, ok := pkg.Info.TypeOf(n.Type).(*types.Signature); ok {
				for i := 0; i < sig.Params().Len(); i++ {
					if p := sig.Params().At(i); isContextType(p.Type()) {
						inner[p] = true
						break
					}
				}
			}
			out = append(out, ctxFlowScope(m, pkg, n.Body, inner)...)
			return false
		case *ast.CallExpr:
			if name, ok := detachedCtxCall(pkg.Info, n); ok {
				out = append(out, Diagnostic{
					Pos: m.Fset.Position(n.Pos()),
					Message: "context." + name + "() detaches this path from request cancellation;" +
						" thread the caller's ctx instead",
				})
				return true
			}
			if len(sources) == 0 {
				return true
			}
			if d, ok := ctxDropped(m, fl, pkg, n, sources); ok {
				out = append(out, d)
			}
		}
		return true
	})
	return out
}

// addDerived grows sources with every ctx-typed object assigned from an
// expression that mentions a source, to a fixed point — the
// ctx := r.Context() / tctx, cancel := context.WithTimeout(ctx, d) chains.
func addDerived(info *types.Info, body ast.Node, sources map[types.Object]bool) {
	if len(sources) == 0 {
		return
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			fromSource := false
			for _, r := range as.Rhs {
				if mentionsAnyObj(info, r, sources) {
					fromSource = true
					break
				}
			}
			if !fromSource {
				return true
			}
			for _, l := range as.Lhs {
				o := objOf(info, l)
				if o != nil && !sources[o] && isContextType(o.Type()) {
					sources[o] = true
					changed = true
				}
			}
			return true
		})
	}
}

// mentionsAnyObj reports whether the subtree references any object in set.
func mentionsAnyObj(info *types.Info, n ast.Node, set map[types.Object]bool) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && set[info.ObjectOf(id)] {
			found = true
		}
		return !found
	})
	return found
}

// detachedCtxCall reports a direct context.Background()/context.TODO()
// call, returning which one.
func detachedCtxCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	obj := calleeOf(info, call)
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "context" {
		return "", false
	}
	if n := obj.Name(); n == "Background" || n == "TODO" {
		return n, true
	}
	return "", false
}

// ctxDropped checks one call from a function that has a ctx source: when
// the callee blocks (per the flow layer) and accepts a context, the
// context argument must derive from the caller's own sources. A dynamic
// call through a func value is treated as blocking — a signature asks for
// a context precisely because the work is cancellable.
func ctxDropped(m *Module, fl *Flow, pkg *Package, call *ast.CallExpr, sources map[types.Object]bool) (Diagnostic, bool) {
	sig, _ := pkg.Info.TypeOf(call.Fun).(*types.Signature)
	if sig == nil {
		return Diagnostic{}, false // conversion or builtin
	}
	ctxIdx := -1
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			ctxIdx = i
			break
		}
	}
	if ctxIdx < 0 || ctxIdx >= len(call.Args) {
		return Diagnostic{}, false
	}

	calleeName := "function value"
	if obj := calleeOf(pkg.Info, call); obj != nil {
		if fi := fl.FuncOf(obj); fi != nil && !fi.Blocks() {
			return Diagnostic{}, false // ctx passes through nothing that parks
		}
		calleeName = obj.Name()
	}

	arg := ast.Unparen(call.Args[ctxIdx])
	if c, ok := arg.(*ast.CallExpr); ok {
		if _, detached := detachedCtxCall(pkg.Info, c); detached {
			return Diagnostic{}, false // already reported as a detached context
		}
	}
	if mentionsAnyObj(pkg.Info, arg, sources) {
		return Diagnostic{}, false
	}
	return Diagnostic{
		Pos: m.Fset.Position(call.Pos()),
		Message: "blocking call to " + calleeName + " accepts a Context but the caller's request" +
			" context does not reach it; the work it starts cannot be cancelled",
	}, true
}
