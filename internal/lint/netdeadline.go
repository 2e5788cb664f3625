package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// NetDeadline flags socket reads and writes in transport code (packages
// with a "dist" path segment) that have no preceding deadline on the same
// connection in the same function. A net.Conn Read with no read deadline
// parks its goroutine until the peer speaks — under a severed link or a
// one-way partition that is forever, which is exactly the hang class the
// transport's retry/degrade path exists to prevent. The check is
// object-local and source-ordered: Conn.Read / Conn.Write (and conn
// arguments to io.ReadFull, io.ReadAtLeast, io.Copy, io.CopyN) must be
// preceded, earlier in the same function, by SetReadDeadline /
// SetWriteDeadline / SetDeadline on that same connection value.
func NetDeadline() *Analyzer {
	return &Analyzer{
		Name: "netdeadline",
		Run:  runNetDeadline,
	}
}

func runNetDeadline(m *Module, pkg *Package) []Diagnostic {
	if !pathHasSegment(pkg.Path, "dist") {
		return nil
	}
	var out []Diagnostic
	for _, f := range pkg.Files {
		for _, decl := range f.AST.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				out = append(out, netDeadlineFunc(m, pkg, fn)...)
			}
		}
	}
	return out
}

const (
	netDeadlineReadMsg  = "with no preceding SetReadDeadline; a silent peer parks this goroutine forever"
	netDeadlineWriteMsg = "with no preceding SetWriteDeadline; a stalled peer parks this goroutine forever"
)

// netDeadlineFunc walks one function body in source order, tracking which
// connection objects have had a read/write deadline set, and flags
// unguarded socket operations. SetDeadline guards both directions.
func netDeadlineFunc(m *Module, pkg *Package, fn *ast.FuncDecl) []Diagnostic {
	var out []Diagnostic
	guardR := make(map[types.Object]bool)
	guardW := make(map[types.Object]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if isConnType(pkg.Info.TypeOf(sel.X)) {
			obj := objOf(pkg.Info, sel.X)
			switch sel.Sel.Name {
			case "SetDeadline":
				if obj != nil {
					guardR[obj], guardW[obj] = true, true
				}
			case "SetReadDeadline":
				if obj != nil {
					guardR[obj] = true
				}
			case "SetWriteDeadline":
				if obj != nil {
					guardW[obj] = true
				}
			case "Read":
				if obj == nil || !guardR[obj] {
					out = append(out, Diagnostic{
						Pos:     m.Fset.Position(call.Pos()),
						Message: "net.Conn Read " + netDeadlineReadMsg,
					})
				}
			case "Write":
				if obj == nil || !guardW[obj] {
					out = append(out, Diagnostic{
						Pos:     m.Fset.Position(call.Pos()),
						Message: "net.Conn Write " + netDeadlineWriteMsg,
					})
				}
			}
			return true
		}
		// io helpers that read or write a conn passed as an argument.
		fobj := pkg.Info.ObjectOf(sel.Sel)
		if fobj == nil || fobj.Pkg() == nil || fobj.Pkg().Path() != "io" {
			return true
		}
		checkArg := func(arg ast.Expr, guard map[types.Object]bool, verb, msg string) {
			if !isConnType(pkg.Info.TypeOf(arg)) {
				return
			}
			if obj := objOf(pkg.Info, arg); obj == nil || !guard[obj] {
				out = append(out, Diagnostic{
					Pos:     m.Fset.Position(arg.Pos()),
					Message: "io." + fobj.Name() + " " + verb + " a net.Conn " + msg,
				})
			}
		}
		switch fobj.Name() {
		case "ReadFull", "ReadAtLeast":
			if len(call.Args) >= 1 {
				checkArg(call.Args[0], guardR, "reads", netDeadlineReadMsg)
			}
		case "Copy", "CopyN":
			if len(call.Args) >= 2 {
				checkArg(call.Args[0], guardW, "writes", netDeadlineWriteMsg)
				checkArg(call.Args[1], guardR, "reads", netDeadlineReadMsg)
			}
		}
		return true
	})
	return out
}

// isConnType reports whether t is a network connection: a named type from
// package net whose name ends in Conn (net.Conn, *net.TCPConn, ...), or
// any interface carrying both Read and SetReadDeadline — a conn by shape,
// whatever package declared it.
func isConnType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		obj := n.Obj()
		if obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "net" &&
			strings.HasSuffix(obj.Name(), "Conn") {
			return true
		}
		t = n.Underlying()
	}
	iface, ok := t.(*types.Interface)
	if !ok {
		return false
	}
	hasRead, hasSetRead := false, false
	for i := 0; i < iface.NumMethods(); i++ {
		switch iface.Method(i).Name() {
		case "Read":
			hasRead = true
		case "SetReadDeadline":
			hasSetRead = true
		}
	}
	return hasRead && hasSetRead
}
