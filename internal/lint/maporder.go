package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// deterministicPkgs are the path segments of packages whose outputs must
// replay bit-identically under one seed: the trainers, the partitioner and
// graph builder, vocabulary and corpus construction, snapshots, and the
// chaos harness that checks all of the above.
var deterministicPkgs = []string{"sgns", "dist", "graph", "vocab", "corpus", "checkpoint", "chaos"}

// MapOrder flags `for range` over a map whose body appends to a slice that
// is never sorted in the enclosing function. Go randomizes map iteration
// order, so such a loop emits its elements in a different order every run —
// the exact failure mode that breaks same-seed replay when the slice feeds
// pair generation, partitioning, or a checkpoint. The collect-then-sort
// idiom (append keys, sort.Slice, iterate sorted) is recognized and not
// flagged.
func MapOrder() *Analyzer {
	return &Analyzer{
		Name: "maporder",
		Run:  runMapOrder,
	}
}

func runMapOrder(m *Module, pkg *Package) []Diagnostic {
	if !pathHasSegment(pkg.Path, deterministicPkgs...) {
		return nil
	}
	var out []Diagnostic
	for _, f := range pkg.Files {
		for _, decl := range f.AST.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if ok && fn.Body != nil {
				out = append(out, mapOrderFunc(m, pkg, fn)...)
			}
		}
	}
	return out
}

func mapOrderFunc(m *Module, pkg *Package, fn *ast.FuncDecl) []Diagnostic {
	var out []Diagnostic
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pkg.Info.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		for _, target := range appendTargets(pkg.Info, rs.Body) {
			if sortedIn(pkg.Info, fn, target) {
				continue
			}
			out = append(out, Diagnostic{
				Pos: m.Fset.Position(rs.For),
				Message: "map iteration appends to " + quoteName(target) +
					" with no sort step in " + fn.Name.Name + "; map order is randomized per run",
			})
		}
		return true
	})
	return out
}

func quoteName(o types.Object) string { return "\"" + o.Name() + "\"" }

// appendTargets returns the objects that statements in body append to,
// via the `x = append(x, ...)` form (possibly through a struct field).
func appendTargets(info *types.Info, body ast.Node) []types.Object {
	seen := make(map[types.Object]bool)
	var out []types.Object
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !isBuiltinAppend(info, call) || i >= len(as.Lhs) {
				continue
			}
			if target := objOf(info, as.Lhs[i]); target != nil && !seen[target] {
				seen[target] = true
				out = append(out, target)
			}
		}
		return true
	})
	return out
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.ObjectOf(id).(*types.Builtin)
	return ok && b.Name() == "append"
}

// sortedIn reports whether fn contains a call to a sort/slices sorting
// function with target among its argument expressions — the second half of
// the collect-then-sort idiom.
func sortedIn(info *types.Info, fn *ast.FuncDecl, target types.Object) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || !isSortCall(info, call) {
			return true
		}
		for _, arg := range call.Args {
			if mentionsObj(info, arg, target) {
				found = true
				break
			}
		}
		return !found
	})
	return found
}

// isSortCall recognizes the stdlib sorting entry points: anything exported
// from package sort or slices whose name contains "Sort" plus the sort
// package's classic helpers (sort.Slice, sort.Strings, sort.Ints, ...).
func isSortCall(info *types.Info, call *ast.CallExpr) bool {
	obj := objOf(info, call.Fun)
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "sort", "slices":
	default:
		return false
	}
	switch fn.Name() {
	case "Slice", "SliceStable", "Stable", "Strings", "Ints", "Float64s":
		return true
	}
	return strings.Contains(fn.Name(), "Sort")
}
