package lint

import (
	"go/ast"
	"go/types"
)

// errSinkPkgs are the path segments of packages whose I/O errors are
// load-bearing: a swallowed Sync in checkpoint turns an atomic snapshot
// into silent corruption on power loss, a swallowed Close in seqio loses
// buffered sessions, and the serving/cmd shutdown paths must report why
// they failed. The cmd trees ride along because they own the file handles
// the libraries write through.
var errSinkPkgs = []string{"checkpoint", "seqio", "server", "cmd"}

// errSinkMethods are the error-returning calls whose results must not be
// dropped on the floor in those packages.
var errSinkMethods = map[string]bool{"Write": true, "Sync": true, "Close": true, "Flush": true}

// ErrSink flags Write/Sync/Close/Flush calls whose error result is
// discarded by using the call as a bare statement (including `defer` and
// `go`). An explicit `_ = f.Close()` is treated as an acknowledged,
// deliberate discard and is not flagged — the point is to make the
// decision visible, not to forbid it. Calls on strings.Builder and
// bytes.Buffer are exempt: their Write methods are documented never to
// fail.
func ErrSink() *Analyzer {
	return &Analyzer{
		Name: "errsink",
		Run:  runErrSink,
	}
}

func runErrSink(m *Module, pkg *Package) []Diagnostic {
	if !pathHasSegment(pkg.Path, errSinkPkgs...) {
		return nil
	}
	var out []Diagnostic
	for _, f := range pkg.Files {
		ast.Inspect(f.AST, func(n ast.Node) bool {
			var call *ast.CallExpr
			switch st := n.(type) {
			case *ast.ExprStmt:
				call, _ = ast.Unparen(st.X).(*ast.CallExpr)
			case *ast.DeferStmt:
				call = st.Call
			case *ast.GoStmt:
				call = st.Call
			}
			if call == nil {
				return true
			}
			if d, ok := errSinkCall(m, pkg, call); ok {
				out = append(out, d)
			}
			return true
		})
	}
	return out
}

// errSinkCall reports a diagnostic if call is a dropped-error sink.
func errSinkCall(m *Module, pkg *Package, call *ast.CallExpr) (Diagnostic, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !errSinkMethods[sel.Sel.Name] {
		return Diagnostic{}, false
	}
	fn, ok := pkg.Info.ObjectOf(sel.Sel).(*types.Func)
	if !ok {
		return Diagnostic{}, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || !returnsError(sig) {
		return Diagnostic{}, false
	}
	if recv := sig.Recv(); recv != nil && neverFails(recv.Type()) {
		return Diagnostic{}, false
	}
	return Diagnostic{
		Pos: m.Fset.Position(call.Pos()),
		Message: sel.Sel.Name + " error discarded; check it (or write `_ = ...` to discard deliberately)" +
			" — durability paths must surface I/O failures",
	}, true
}

// returnsError reports whether the signature's last result is error.
func returnsError(sig *types.Signature) bool {
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	last := res.At(res.Len() - 1).Type()
	named, ok := last.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// neverFails reports whether t is one of the stdlib writers documented to
// never return an error (strings.Builder, bytes.Buffer).
func neverFails(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	switch named.Obj().Pkg().Path() + "." + named.Obj().Name() {
	case "strings.Builder", "bytes.Buffer":
		return true
	}
	return false
}
