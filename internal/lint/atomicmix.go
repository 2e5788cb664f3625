package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AtomicMix flags struct fields that are accessed through sync/atomic
// function calls (atomic.AddUint64(&s.n, 1), atomic.LoadInt32(&s.flag))
// in one place and by plain load/store somewhere else in the same package.
// Mixing the two is a data race the race detector only catches when the
// schedule cooperates: the plain access is invisible to the atomic one.
// This is the exact bug class PR 1 fixed in the dist worker's noiseFor
// path. Fields declared with the atomic.Uint64-style types are immune by
// construction and are not examined.
func AtomicMix() *Analyzer {
	return &Analyzer{
		Name: "atomicmix",
		Run:  runAtomicMix,
	}
}

func runAtomicMix(m *Module, pkg *Package) []Diagnostic {
	// Pass 1: fields whose address is taken as an argument to a
	// sync/atomic function, and the selector nodes doing so.
	atomicFields := make(map[types.Object]token.Pos) // field -> one atomic-use site
	atomicSels := make(map[*ast.SelectorExpr]bool)   // selectors consumed by those calls
	for _, f := range pkg.Files {
		ast.Inspect(f.AST, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isSyncAtomicCall(pkg.Info, call) {
				return true
			}
			for _, arg := range call.Args {
				un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					continue
				}
				sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				obj := pkg.Info.ObjectOf(sel.Sel)
				if v, ok := obj.(*types.Var); ok && v.IsField() {
					if _, seen := atomicFields[obj]; !seen {
						atomicFields[obj] = sel.Pos()
					}
					atomicSels[sel] = true
				}
			}
			return true
		})
	}
	if len(atomicFields) == 0 {
		return nil
	}

	// Pass 2: any other selector resolving to one of those fields is a
	// plain access.
	var out []Diagnostic
	for _, f := range pkg.Files {
		ast.Inspect(f.AST, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || atomicSels[sel] {
				return true
			}
			obj := pkg.Info.ObjectOf(sel.Sel)
			firstUse, tracked := atomicFields[obj]
			if !tracked {
				return true
			}
			out = append(out, Diagnostic{
				Pos: m.Fset.Position(sel.Pos()),
				Message: "field " + obj.Name() + " is accessed with sync/atomic at " +
					m.Fset.Position(firstUse).String() +
					" but read/written plainly here; pick one discipline (or an atomic.Uint64-style field)",
			})
			return true
		})
	}
	return out
}

// isSyncAtomicCall reports whether call invokes a function from package
// sync/atomic (the free functions; methods on atomic.Uint64 etc. take no
// address argument and never reach the pass-1 pattern).
func isSyncAtomicCall(info *types.Info, call *ast.CallExpr) bool {
	fn, ok := objOf(info, call.Fun).(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic"
}
