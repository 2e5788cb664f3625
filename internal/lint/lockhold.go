package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// LockHold enforces the hot-path locking discipline from PRs 6–8: nothing
// that can park a goroutine — network I/O, channel operations, sleeps, a
// Transport.Await — may run while a sync.Mutex/RWMutex is held, because
// every microsecond under the lock is serialized across all request
// goroutines (the snapshot-under-lock, work-outside idiom in metrics and
// singleflight exists precisely for this). Scoped to dist, server, knn
// and metrics.
//
// The walk is linear over each function body in source order, tracking
// which mutexes are held (Lock adds, Unlock removes, a deferred Unlock
// holds to the end). One level of call inlining comes from the flow
// layer: a call to a module helper whose own body directly blocks is
// flagged at the call site, so the check crosses small helpers without
// whole-program inlining. Function literals are separate scopes — a
// deferred or spawned literal does not run under the lock held at its
// definition site.
func LockHold() *Analyzer {
	return &Analyzer{
		Name: "lockhold",
		Run:  runLockHold,
	}
}

func runLockHold(m *Module, pkg *Package) []Diagnostic {
	if !scopedTo(m, pkg, "dist", "server", "knn", "metrics") {
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
			out = append(out, lockScope(m, fl, pkg, fd.Body)...)
		}
	}
	return out
}

// heldLock records one currently-held mutex: the object and where it was
// locked.
type heldLock struct {
	name string
	line int
}

// lockScope walks one function or literal body in source order, tracking
// held mutexes and flagging blocking operations inside held regions.
// Nested literals start fresh scopes (recursion), since they execute on
// their own schedule.
func lockScope(m *Module, fl *Flow, pkg *Package, body *ast.BlockStmt) []Diagnostic {
	info := pkg.Info
	held := make(map[types.Object]heldLock)
	var out []Diagnostic

	report := func(pos token.Pos, op string) {
		for _, h := range held {
			out = append(out, Diagnostic{
				Pos: m.Fset.Position(pos),
				Message: op + " while " + h.name + " is held (locked at line " +
					strconv.Itoa(h.line) + "); blocking under a lock serializes every waiter behind this stall",
			})
			return // one diagnostic per site, whichever lock — not one per lock
		}
	}

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			out = append(out, lockScope(m, fl, pkg, n.Body)...)
			return false
		case *ast.GoStmt:
			// The spawned call blocks its own goroutine, not the lock
			// holder. Its literal still gets its own scope check.
			if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				out = append(out, lockScope(m, fl, pkg, lit.Body)...)
			}
			return false
		case *ast.DeferStmt:
			// A deferred Unlock keeps the mutex held to the end of the
			// function — exactly the common idiom — so it must NOT clear
			// the held set. Other deferred work runs at return; a deferred
			// literal is its own scope.
			if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				out = append(out, lockScope(m, fl, pkg, lit.Body)...)
			}
			return false
		case *ast.SendStmt:
			if len(held) > 0 {
				report(n.Pos(), "channel send")
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && len(held) > 0 {
				report(n.Pos(), "channel receive")
			}
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault && len(held) > 0 {
				report(n.Pos(), "select without default")
			}
			for _, c := range n.Body.List {
				for _, s := range c.(*ast.CommClause).Body {
					ast.Inspect(s, walk)
				}
			}
			return false
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok && len(held) > 0 {
					report(n.Pos(), "range over channel")
				}
			}
		case *ast.CallExpr:
			obj := calleeOf(info, n)
			if obj == nil {
				return true
			}
			full := obj.FullName()
			if mu, lockOp := mutexOp(info, n, full); mu != nil {
				if lockOp {
					held[mu] = heldLock{name: exprString(n), line: m.Fset.Position(n.Pos()).Line}
				} else {
					delete(held, mu)
				}
				return true
			}
			if len(held) == 0 {
				return true
			}
			if bf, ok := blockingCalls[full]; ok && bf.Kind != BlockLock {
				report(n.Pos(), bf.Op)
				return true
			}
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && isConnType(info.TypeOf(sel.X)) {
				switch sel.Sel.Name {
				case "Read", "Write", "ReadFrom", "WriteTo", "Accept":
					report(n.Pos(), "net.Conn "+sel.Sel.Name)
					return true
				}
			}
			// One level of summary inlining: a module callee (or any module
			// implementation of an interface method) whose own body blocks.
			targets := []*FuncInfo{fl.FuncOf(obj)}
			if targets[0] == nil {
				if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil &&
					types.IsInterface(sig.Recv().Type()) && fl.isModuleObj(obj) {
					targets = fl.implementations(obj)
				}
			}
			for _, t := range targets {
				if t == nil {
					continue
				}
				if bf, ok := t.DirectlyBlocks(); ok {
					report(n.Pos(), "call to "+obj.Name()+", which does "+bf.Op)
					break
				}
			}
		}
		return true
	}
	ast.Inspect(body, walk)
	return out
}

// mutexOp classifies a call as a mutex Lock-family or Unlock-family
// operation, returning the mutex object. lockOp is true for acquisitions.
func mutexOp(info *types.Info, call *ast.CallExpr, full string) (mu types.Object, lockOp bool) {
	switch full {
	case "(*sync.Mutex).Lock", "(*sync.RWMutex).Lock", "(*sync.RWMutex).RLock":
		lockOp = true
	case "(*sync.Mutex).Unlock", "(*sync.RWMutex).Unlock", "(*sync.RWMutex).RUnlock":
	case "(*sync.Mutex).TryLock", "(*sync.RWMutex).TryLock", "(*sync.RWMutex).TryRLock":
		lockOp = true
	default:
		return nil, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	return objOf(info, sel.X), lockOp
}

// exprString renders the receiver of a mutex call ("s.mu.Lock()" etc.) for
// messages; it only needs to be readable, not parseable.
func exprString(call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "mutex"
	}
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	}
	return "mutex"
}
