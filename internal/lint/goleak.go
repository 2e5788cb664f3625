package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// GoLeak enforces the supervised-goroutine discipline PRs 5 and 7 built
// into dist and the serving path: every goroutine must have a provable
// termination path, because an engine that leaks one goroutine per failed
// peer (or per request) degrades exactly the way the load generator in
// PR 8 measures. Scoped to dist, server and knn, each `go` statement must
// show one of:
//
//   - a sync.WaitGroup.Done in the spawned body (lifecycle owned by a
//     waiter),
//   - a receive from a done/ctx channel (select-driven shutdown),
//   - a range over a channel (terminates when the producer closes it),
//   - a send into a channel the spawner made with a buffer (result
//     handoff that cannot park forever), or
//   - a straight-line body with no blocking operation at all.
//
// Fire-and-forget goroutines that capture a net.Conn get called out
// specifically: those pin file descriptors, not just stacks.
func GoLeak() *Analyzer {
	return &Analyzer{
		Name: "goleak",
		Run:  runGoLeak,
	}
}

func runGoLeak(m *Module, pkg *Package) []Diagnostic {
	if !scopedTo(m, pkg, "dist", "server", "knn") {
		return nil
	}
	fl := m.Flow()
	var out []Diagnostic
	for _, f := range pkg.Files {
		for _, decl := range f.AST.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if d, leak := checkGoStmt(m, fl, pkg, fd, g); leak {
					out = append(out, d)
				}
				return true
			})
		}
	}
	return out
}

// checkGoStmt proves (or fails to prove) termination of one go statement.
func checkGoStmt(m *Module, fl *Flow, pkg *Package, spawner *ast.FuncDecl, g *ast.GoStmt) (Diagnostic, bool) {
	var body *ast.BlockStmt
	var info *types.Info
	what := "goroutine"

	switch fun := ast.Unparen(g.Call.Fun).(type) {
	case *ast.FuncLit:
		body, info = fun.Body, pkg.Info
	default:
		obj := calleeOf(pkg.Info, g.Call)
		if target := fl.FuncOf(obj); target != nil {
			body, info = target.Decl.Body, target.Pkg.Info
			what = "goroutine running " + obj.Name()
		}
	}
	if body == nil {
		// A func value we cannot see into: the spawner takes responsibility
		// it cannot demonstrate.
		return Diagnostic{
			Pos: m.Fset.Position(g.Pos()),
			Message: "goroutine spawns a function value this analysis cannot see into;" +
				" bind it to a WaitGroup or a done channel at the spawn site",
		}, true
	}

	if hasTerminationEvidence(m, fl, info, pkg, spawner, g, body) {
		return Diagnostic{}, false
	}

	msg := what + " has no termination path: no WaitGroup.Done, no done/ctx channel receive," +
		" no buffered result send"
	if conn := capturedConn(pkg.Info, g, body); conn != "" {
		msg += "; it captures net connection " + conn + ", pinning the descriptor for the process lifetime"
	}
	return Diagnostic{Pos: m.Fset.Position(g.Pos()), Message: msg}, true
}

// hasTerminationEvidence scans the spawned body for any of the accepted
// termination proofs.
func hasTerminationEvidence(m *Module, fl *Flow, info *types.Info, pkg *Package, spawner *ast.FuncDecl, g *ast.GoStmt, body *ast.BlockStmt) bool {
	found := false
	blocking := false
	infiniteLoop := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if obj := calleeOf(info, n); obj != nil {
				switch obj.FullName() {
				case "(*sync.WaitGroup).Done":
					found = true // a waiter owns this lifecycle
					return false
				}
				if bf, ok := blockingCalls[obj.FullName()]; ok && bf.Kind != BlockLock {
					blocking = true
				} else if target := fl.FuncOf(obj); target != nil && target.Blocks() {
					blocking = true
				}
			}
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && isConnType(info.TypeOf(sel.X)) {
				switch sel.Sel.Name {
				case "Read", "Write", "ReadFrom", "WriteTo", "Accept":
					blocking = true
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				blocking = true
				if isDoneChannel(info, n.X) {
					found = true
					return false
				}
			}
		case *ast.SelectStmt:
			blocking = true
			for _, c := range n.Body.List {
				cc := c.(*ast.CommClause)
				if recv := commReceive(cc.Comm); recv != nil && isDoneChannel(info, recv) {
					found = true
					return false
				}
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true // terminates when the producer closes the channel
					return false
				}
			}
		case *ast.SendStmt:
			blocking = true
			if sentToBufferedChannel(info, spawner, n) {
				found = true
				return false
			}
		case *ast.ForStmt:
			if n.Cond == nil {
				infiniteLoop = true
			}
		}
		return true
	})
	if found {
		return true
	}
	// No explicit proof, but a body that cannot park and cannot loop
	// forever runs off its own end.
	return !blocking && !infiniteLoop
}

// commReceive extracts the channel expression of a select receive clause.
func commReceive(comm ast.Stmt) ast.Expr {
	switch s := comm.(type) {
	case *ast.ExprStmt:
		if u, ok := ast.Unparen(s.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			return u.X
		}
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			if u, ok := ast.Unparen(s.Rhs[0]).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				return u.X
			}
		}
	}
	return nil
}

// isDoneChannel reports whether a received-from expression is a shutdown
// signal: ctx.Done(), or a channel whose name says lifecycle (done, stop,
// quit, closed, gone, ...). The name heuristic is deliberate — the repo's
// convention (PR 5's worker `gone`, PR 7's transport `closed`) makes the
// intent part of the identifier.
func isDoneChannel(info *types.Info, x ast.Expr) bool {
	x = ast.Unparen(x)
	if call, ok := x.(*ast.CallExpr); ok {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok &&
			sel.Sel.Name == "Done" && isContextType(info.TypeOf(sel.X)) {
			return true
		}
		return false
	}
	name := ""
	switch e := x.(type) {
	case *ast.Ident:
		name = e.Name
	case *ast.SelectorExpr:
		name = e.Sel.Name
	}
	name = strings.ToLower(name)
	for _, marker := range []string{"done", "stop", "quit", "exit", "clos", "abort", "cancel", "gone", "dead", "finish"} {
		if strings.Contains(name, marker) {
			return true
		}
	}
	return false
}

// sentToBufferedChannel reports whether the send target is a channel the
// spawning function made with a non-zero buffer — the result-handoff
// idiom, where the send completes even if every receiver has given up.
func sentToBufferedChannel(info *types.Info, spawner *ast.FuncDecl, send *ast.SendStmt) bool {
	obj := objOf(info, send.Chan)
	if obj == nil || spawner == nil || spawner.Body == nil {
		return false
	}
	buffered := false
	ast.Inspect(spawner.Body, func(n ast.Node) bool {
		if buffered {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			if objOf(info, lhs) != obj || i >= len(as.Rhs) {
				continue
			}
			call, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr)
			if !ok || len(call.Args) < 2 {
				continue
			}
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "make" {
				continue
			}
			if tv, ok := info.Types[call.Args[1]]; ok && tv.Value != nil && tv.Value.String() != "0" {
				buffered = true
			}
		}
		return true
	})
	return buffered
}

// capturedConn names a connection-typed variable the goroutine uses from
// outside its own body (a closure capture or a spawn argument), or "".
func capturedConn(info *types.Info, g *ast.GoStmt, body *ast.BlockStmt) string {
	for _, a := range g.Call.Args {
		if isConnType(info.TypeOf(a)) {
			if id, ok := ast.Unparen(a).(*ast.Ident); ok {
				return id.Name
			}
			return "argument"
		}
	}
	name := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || !isConnType(v.Type()) {
			return true
		}
		// Declared outside the literal's body: a capture, not a local.
		if v.Pos() < body.Pos() || v.Pos() > body.End() {
			name = id.Name
		}
		return true
	})
	return name
}
