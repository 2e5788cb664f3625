package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the dataflow layer shared by the cross-function analyzers
// (ctxflow, goleak, lockhold): a deterministic intra-module call graph over
// the already type-checked packages, plus a per-function summary — does
// this function block, take a context, acquire a lock, spawn a goroutine?
// It is computed once per Module and cached; every analyzer that needs
// cross-function reasoning reads the same graph, so adding a new analyzer
// costs no new traversal machinery.
//
// Determinism is load-bearing: diagnostics are diffed across CI runs, so
// the graph is built by walking packages in dependency order, files in
// directory order and declarations in source order, callee lists are
// deduplicated preserving first-call order, and interface-method edges
// resolve implementations in (package, sorted type name) order. Two loads
// of the same tree produce byte-identical dumps (see TestFlowDeterminism).

// BlockKind classifies why a statement can park its goroutine.
type BlockKind int

const (
	// BlockChan is a channel send, channel receive, or a select with no
	// default clause.
	BlockChan BlockKind = iota
	// BlockSleep is a timed wait (time.Sleep).
	BlockSleep
	// BlockIO is socket or stream I/O: net.Conn reads/writes, dials,
	// accepts, io.ReadFull/Copy and friends, HTTP round-trips.
	BlockIO
	// BlockSync is a synchronization wait: WaitGroup.Wait, Cond.Wait.
	BlockSync
	// BlockLock is a mutex acquisition (Mutex/RWMutex Lock/RLock). It is
	// kept distinct because lock-ordering is judged differently from
	// blocking work: taking a lock under a lock is a discipline question,
	// not a stall, so lockhold excludes this kind.
	BlockLock
)

func (k BlockKind) String() string {
	switch k {
	case BlockChan:
		return "channel operation"
	case BlockSleep:
		return "timed sleep"
	case BlockIO:
		return "network/stream I/O"
	case BlockSync:
		return "synchronization wait"
	case BlockLock:
		return "lock acquisition"
	}
	return "unknown"
}

// BlockFact is one directly-blocking operation observed in a function
// body: what it is and where.
type BlockFact struct {
	Pos  token.Pos
	Kind BlockKind
	Op   string // human description, e.g. "channel receive" or "time.Sleep"
}

// FuncInfo is the flow summary of one module function.
type FuncInfo struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package

	// Callees are the static synchronous call edges out of this function,
	// first-call order, deduplicated. Calls that are the operand of a `go`
	// statement are excluded (they do not block the caller); calls inside
	// non-go function literals are included (defer and inline literals run
	// on the caller's goroutine).
	Callees []*FuncInfo

	// Facts are the function's own directly-blocking operations, in
	// source order. Interface methods carry the union of their module
	// implementations' direct facts (see interface edges below).
	Facts []BlockFact

	// TakesCtx reports a context.Context parameter; CtxParam is the first
	// one (nil otherwise). ReqParam is the first *net/http.Request
	// parameter — handlers receive their context through it.
	TakesCtx bool
	CtxParam *types.Var
	ReqParam *types.Var

	// AcquiresLock / SpawnsGoroutine are the remaining summary bits.
	AcquiresLock    bool
	SpawnsGoroutine bool

	blocksDeep bool // this function or any synchronous callee (any depth) blocks
}

// Blocks reports whether calling this function can park the caller's
// goroutine: it has a direct non-lock blocking fact, or some function
// reachable over synchronous call edges does.
func (f *FuncInfo) Blocks() bool { return f.blocksDeep }

// DirectlyBlocks reports a non-lock blocking operation in this function's
// own body — the one-level summary lockhold inlines across small helpers.
func (f *FuncInfo) DirectlyBlocks() (BlockFact, bool) {
	for _, bf := range f.Facts {
		if bf.Kind != BlockLock {
			return bf, true
		}
	}
	return BlockFact{}, false
}

// Flow is the module-wide call graph and summary store.
type Flow struct {
	m     *Module
	funcs []*FuncInfo // deterministic declaration order
	byObj map[*types.Func]*FuncInfo
}

// Flow returns the module's dataflow layer, building it on first use.
func (m *Module) Flow() *Flow {
	if m.flow == nil {
		m.flow = buildFlow(m)
	}
	return m.flow
}

// FuncOf returns the summary for a function object, or nil when the
// object is not a module function with a body (stdlib, interface methods
// without module implementations, func-typed values).
func (fl *Flow) FuncOf(obj *types.Func) *FuncInfo {
	if obj == nil {
		return nil
	}
	return fl.byObj[obj]
}

// Funcs returns every module function in deterministic order: packages in
// dependency order, files in directory order, declarations in source
// order — callers iterate this instead of map order.
func (fl *Flow) Funcs() []*FuncInfo { return fl.funcs }

// Dump renders the graph and summaries as stable text, one function per
// line: its full name, summary flags, direct facts and callees. Two
// builds of the same tree must produce byte-identical dumps.
func (fl *Flow) Dump() string {
	var b strings.Builder
	for _, f := range fl.funcs {
		fmt.Fprintf(&b, "%s", f.Obj.FullName())
		var flags []string
		if f.TakesCtx {
			flags = append(flags, "ctx")
		}
		if f.AcquiresLock {
			flags = append(flags, "locks")
		}
		if f.SpawnsGoroutine {
			flags = append(flags, "spawns")
		}
		if f.Blocks() {
			flags = append(flags, "blocks")
		}
		if len(flags) > 0 {
			fmt.Fprintf(&b, " [%s]", strings.Join(flags, ","))
		}
		for _, bf := range f.Facts {
			pos := fl.m.Fset.Position(bf.Pos)
			fmt.Fprintf(&b, "\n\t! %s (%s) at line %d", bf.Op, bf.Kind, pos.Line)
		}
		for _, c := range f.Callees {
			fmt.Fprintf(&b, "\n\t-> %s", c.Obj.FullName())
		}
		b.WriteString("\n")
	}
	return b.String()
}

// blockingCalls maps stdlib callees (types.Func.FullName form) to their
// blocking classification. The table is the ground truth the whole layer
// bottoms out in; module functions get their summaries by propagation.
var blockingCalls = map[string]BlockFact{
	"time.Sleep": {Kind: BlockSleep, Op: "time.Sleep"},

	"(*sync.WaitGroup).Wait": {Kind: BlockSync, Op: "sync.WaitGroup.Wait"},
	"(*sync.Cond).Wait":      {Kind: BlockSync, Op: "sync.Cond.Wait"},

	"(*sync.Mutex).Lock":    {Kind: BlockLock, Op: "sync.Mutex.Lock"},
	"(*sync.RWMutex).Lock":  {Kind: BlockLock, Op: "sync.RWMutex.Lock"},
	"(*sync.RWMutex).RLock": {Kind: BlockLock, Op: "sync.RWMutex.RLock"},

	"net.Dial":                  {Kind: BlockIO, Op: "net.Dial"},
	"net.DialTimeout":           {Kind: BlockIO, Op: "net.DialTimeout"},
	"net.Listen":                {Kind: BlockIO, Op: "net.Listen"},
	"(*net.Dialer).Dial":        {Kind: BlockIO, Op: "net.Dialer.Dial"},
	"(*net.Dialer).DialContext": {Kind: BlockIO, Op: "net.Dialer.DialContext"},
	"(net.Listener).Accept":     {Kind: BlockIO, Op: "net.Listener.Accept"},

	"io.ReadFull":    {Kind: BlockIO, Op: "io.ReadFull"},
	"io.ReadAtLeast": {Kind: BlockIO, Op: "io.ReadAtLeast"},
	"io.Copy":        {Kind: BlockIO, Op: "io.Copy"},
	"io.CopyN":       {Kind: BlockIO, Op: "io.CopyN"},
	"io.ReadAll":     {Kind: BlockIO, Op: "io.ReadAll"},

	"(*net/http.Client).Do":             {Kind: BlockIO, Op: "http.Client.Do"},
	"(*net/http.Client).Get":            {Kind: BlockIO, Op: "http.Client.Get"},
	"(*net/http.Client).Post":           {Kind: BlockIO, Op: "http.Client.Post"},
	"(*net/http.Client).Head":           {Kind: BlockIO, Op: "http.Client.Head"},
	"net/http.Get":                      {Kind: BlockIO, Op: "http.Get"},
	"net/http.Post":                     {Kind: BlockIO, Op: "http.Post"},
	"net/http.Head":                     {Kind: BlockIO, Op: "http.Head"},
	"(*net/http.Server).ListenAndServe": {Kind: BlockIO, Op: "http.Server.ListenAndServe"},
	"(*net/http.Server).Serve":          {Kind: BlockIO, Op: "http.Server.Serve"},
	"(*net/http.Server).Shutdown":       {Kind: BlockIO, Op: "http.Server.Shutdown"},
	"(*os/exec.Cmd).Run":                {Kind: BlockIO, Op: "exec.Cmd.Run"},
	"(*os/exec.Cmd).Wait":               {Kind: BlockIO, Op: "exec.Cmd.Wait"},
	"(*os/exec.Cmd).Output":             {Kind: BlockIO, Op: "exec.Cmd.Output"},
	"(*os/exec.Cmd).CombinedOutput":     {Kind: BlockIO, Op: "exec.Cmd.CombinedOutput"},
}

// buildFlow constructs the graph: one pass indexing declarations, one
// pass extracting per-function facts and raw edges, one pass joining
// interface-method callees onto their module implementations, then a
// fixed-point propagation of transitive blocking (cycles — mutual
// recursion, interface loops — converge because the facts only grow).
func buildFlow(m *Module) *Flow {
	fl := &Flow{m: m, byObj: make(map[*types.Func]*FuncInfo)}

	for _, pkg := range m.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.AST.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &FuncInfo{Obj: obj, Decl: fd, Pkg: pkg}
				fl.funcs = append(fl.funcs, fi)
				fl.byObj[obj] = fi
			}
		}
	}

	for _, fi := range fl.funcs {
		fl.summarize(fi)
	}

	// Propagate transitive blocking to a fixed point. Each round visits
	// functions in stable order; the flag is monotone, so the loop
	// terminates in at most graph-diameter rounds.
	for _, fi := range fl.funcs {
		if _, ok := fi.DirectlyBlocks(); ok {
			fi.blocksDeep = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range fl.funcs {
			if fi.blocksDeep {
				continue
			}
			for _, c := range fi.Callees {
				if c.blocksDeep {
					fi.blocksDeep = true
					changed = true
					break
				}
			}
		}
	}
	return fl
}

// summarize fills one function's facts, parameters, and callee edges.
func (fl *Flow) summarize(fi *FuncInfo) {
	sig := fi.Obj.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if isContextType(p.Type()) && fi.CtxParam == nil {
			fi.TakesCtx = true
			fi.CtxParam = p
		}
		if isHTTPRequestType(p.Type()) && fi.ReqParam == nil {
			fi.ReqParam = p
		}
	}

	info := fi.Pkg.Info
	seen := make(map[*FuncInfo]bool)
	addCallee := func(c *FuncInfo) {
		if c != nil && c != fi && !seen[c] {
			seen[c] = true
			fi.Callees = append(fi.Callees, c)
		}
	}

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			fi.SpawnsGoroutine = true
			// The spawned call runs on another goroutine: no synchronous
			// edge, no blocking fact. Its arguments ARE evaluated here.
			for _, a := range n.Call.Args {
				ast.Inspect(a, walk)
			}
			if _, ok := n.Call.Fun.(*ast.FuncLit); !ok {
				ast.Inspect(n.Call.Fun, walk) // selector side effects, minus the call edge
			}
			return false
		case *ast.SendStmt:
			fi.Facts = append(fi.Facts, BlockFact{Pos: n.Pos(), Kind: BlockChan, Op: "channel send"})
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				fi.Facts = append(fi.Facts, BlockFact{Pos: n.Pos(), Kind: BlockChan, Op: "channel receive"})
			}
		case *ast.SelectStmt:
			// A select with a default clause never parks; one without can.
			hasDefault := false
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				fi.Facts = append(fi.Facts, BlockFact{Pos: n.Pos(), Kind: BlockChan, Op: "select without default"})
			}
			// Descend into the clauses but not re-count the comm receives:
			// the select fact covers them. Walk bodies only.
			for _, c := range n.Body.List {
				cc := c.(*ast.CommClause)
				for _, s := range cc.Body {
					ast.Inspect(s, walk)
				}
			}
			return false
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					fi.Facts = append(fi.Facts, BlockFact{Pos: n.Pos(), Kind: BlockChan, Op: "range over channel"})
				}
			}
		case *ast.CallExpr:
			fl.recordCall(fi, info, n, addCallee)
		}
		return true
	}
	ast.Inspect(fi.Decl.Body, walk)
}

// recordCall classifies one call expression: a stdlib blocking fact, a
// net.Conn method fact, a static module edge, or an interface-method call
// joined over its module implementations.
func (fl *Flow) recordCall(fi *FuncInfo, info *types.Info, call *ast.CallExpr, addCallee func(*FuncInfo)) {
	obj := calleeOf(info, call)
	if obj == nil {
		return // dynamic call through a func value, conversion, or builtin
	}

	if bf, ok := blockingCalls[obj.FullName()]; ok {
		bf.Pos = call.Pos()
		fi.Facts = append(fi.Facts, bf)
		if bf.Kind == BlockLock {
			fi.AcquiresLock = true
		}
		return
	}

	// Reads and writes on anything connection-shaped block like net I/O,
	// whatever concrete net type is behind it.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && isConnType(info.TypeOf(sel.X)) {
		switch sel.Sel.Name {
		case "Read", "Write", "ReadFrom", "WriteTo", "Accept":
			fi.Facts = append(fi.Facts, BlockFact{Pos: call.Pos(), Kind: BlockIO, Op: "net.Conn " + sel.Sel.Name})
			return
		}
	}

	if target := fl.byObj[obj]; target != nil {
		addCallee(target)
		return
	}

	// A module-local interface method: the static callee has no body, but
	// every module type implementing the interface is a possible target.
	// Join them all — deterministically — so e.g. Transport.Await inherits
	// "blocks" from its channel, TCP and fault implementations.
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		if types.IsInterface(sig.Recv().Type()) && fl.isModuleObj(obj) {
			for _, impl := range fl.implementations(obj) {
				addCallee(impl)
			}
		}
	}
}

// isModuleObj reports whether the object was declared by a package of the
// module under analysis.
func (fl *Flow) isModuleObj(obj types.Object) bool {
	return obj.Pkg() != nil && fl.m.byPath[obj.Pkg().Path()] != nil
}

// implementations resolves an interface method to the matching concrete
// methods of every module type that implements the interface, in
// (package order, sorted type name) order.
func (fl *Flow) implementations(method *types.Func) []*FuncInfo {
	recv := method.Type().(*types.Signature).Recv()
	iface, ok := recv.Type().Underlying().(*types.Interface)
	if !ok || iface.NumMethods() == 0 {
		return nil
	}
	var out []*FuncInfo
	for _, pkg := range fl.m.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() { // Names() is sorted
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if ok && types.IsInterface(named) {
				continue
			}
			if !ok {
				continue
			}
			var typ types.Type = named
			if !types.Implements(typ, iface) {
				typ = types.NewPointer(named)
				if !types.Implements(typ, iface) {
					continue
				}
			}
			o, _, _ := types.LookupFieldOrMethod(typ, true, method.Pkg(), method.Name())
			if m, ok := o.(*types.Func); ok {
				if fi := fl.byObj[m]; fi != nil {
					out = append(out, fi)
				}
			}
		}
	}
	return out
}

// calleeOf resolves a call expression to the *types.Func it statically
// invokes: a package function, a method (concrete or interface), possibly
// package-qualified. Nil for builtins, conversions and func values.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[f].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[f.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// isHTTPRequestType reports whether t is *net/http.Request.
func isHTTPRequestType(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := p.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == "Request"
}

// sortedFacts returns a copy of facts ordered by position — callers that
// merge facts from several sources use this to keep messages stable.
func sortedFacts(facts []BlockFact) []BlockFact {
	out := append([]BlockFact(nil), facts...)
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}
