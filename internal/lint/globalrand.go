package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// GlobalRand flags any use of math/rand (or math/rand/v2) in non-test
// code, plus time-derived seed expressions. Every random draw in this
// repository must come from internal/rng's splittable seeded streams:
// math/rand's package-level functions share one mutex-guarded, ambiently
// seeded source, so a single stray call makes same-seed runs diverge and
// serializes the Hogwild trainers on a lock. A `time.Now().UnixNano()`
// seed is the same bug one step removed — the seed itself stops being a
// function of the run's master seed.
func GlobalRand() *Analyzer {
	return &Analyzer{
		Name: "globalrand",
		Run:  runGlobalRand,
	}
}

func runGlobalRand(m *Module, pkg *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range pkg.Files {
		out = append(out, randUseDiags(m, pkg, f)...)
		out = append(out, timeSeedDiags(m, pkg, f)...)
	}
	return out
}

func randUseDiags(m *Module, pkg *Package, f *File) []Diagnostic {
	var out []Diagnostic
	ast.Inspect(f.AST, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj := pkg.Info.ObjectOf(sel.Sel)
		if obj == nil || obj.Pkg() == nil {
			return true
		}
		switch obj.Pkg().Path() {
		case "math/rand", "math/rand/v2":
			out = append(out, Diagnostic{
				Pos: m.Fset.Position(sel.Pos()),
				Message: "use of " + obj.Pkg().Path() + "." + obj.Name() +
					"; draw from the seeded streams in internal/rng instead",
			})
		}
		return true
	})
	return out
}

// timeSeedDiags flags time.Now().UnixNano() / .Unix() used as an argument
// to a call whose name suggests seeding (New*, *Seed*) — the classic
// "seed from the wall clock" anti-pattern.
func timeSeedDiags(m *Module, pkg *Package, f *File) []Diagnostic {
	var out []Diagnostic
	ast.Inspect(f.AST, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := calleeName(pkg, call)
		lower := strings.ToLower(name)
		if name == "" || !(strings.HasPrefix(lower, "new") || strings.Contains(lower, "seed")) {
			return true
		}
		for _, arg := range call.Args {
			if isWallClock(pkg, arg) {
				out = append(out, Diagnostic{
					Pos: m.Fset.Position(arg.Pos()),
					Message: "wall-clock seed passed to " + name +
						"; derive seeds from the run's master seed (internal/rng) so runs replay",
				})
			}
		}
		return true
	})
	return out
}

// calleeName returns the simple name of the function being called, or "".
func calleeName(pkg *Package, call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// isWallClock matches time.Now().UnixNano(), time.Now().Unix(), and
// time-typed conversions of either (e.g. uint64(time.Now().UnixNano())).
func isWallClock(pkg *Package, e ast.Expr) bool {
	e = ast.Unparen(e)
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	// Unwrap a conversion: T(inner) where T is a type.
	if len(call.Args) == 1 {
		if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
			return isWallClock(pkg, call.Args[0])
		}
		if _, ok := objOf(pkg.Info, call.Fun).(*types.TypeName); ok {
			return isWallClock(pkg, call.Args[0])
		}
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "UnixNano" && sel.Sel.Name != "Unix") {
		return false
	}
	inner, ok := ast.Unparen(sel.X).(*ast.CallExpr)
	if !ok {
		return false
	}
	obj := objOf(pkg.Info, inner.Fun)
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "time" && obj.Name() == "Now"
}
