package lint

import (
	"go/ast"
	"go/types"
)

// metricMethods are the Registry registration entry points whose first
// argument is the metric family name.
var metricMethods = map[string]bool{"Counter": true, "Gauge": true, "GaugeFunc": true, "Histogram": true}

// MetricName flags metric registrations whose name argument is not a
// compile-time constant. The metrics registry promises bounded series
// cardinality (PR 2); a name built at runtime — fmt.Sprintf with a user
// ID, a loop variable — turns the registry into an unbounded map and the
// /metrics page into a memory leak. A constant name keeps the full metric
// namespace enumerable by reading the source.
func MetricName() *Analyzer {
	return &Analyzer{
		Name: "metricname",
		Run:  runMetricName,
	}
}

func runMetricName(m *Module, pkg *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range pkg.Files {
		ast.Inspect(f.AST, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || !metricMethods[sel.Sel.Name] || !isRegistryMethod(pkg.Info, sel) {
				return true
			}
			name := call.Args[0]
			if tv, ok := pkg.Info.Types[name]; ok && tv.Value == nil {
				out = append(out, Diagnostic{
					Pos: m.Fset.Position(name.Pos()),
					Message: "metric name passed to " + sel.Sel.Name +
						" is not a compile-time constant; dynamic names break the bounded-cardinality promise",
				})
			}
			return true
		})
	}
	return out
}

// isRegistryMethod reports whether sel resolves to a method on a type
// named Registry defined in a package named metrics (matched by name so
// the analyzer also recognizes test fixtures and future forks of the
// registry, not just sisg/internal/metrics).
func isRegistryMethod(info *types.Info, sel *ast.SelectorExpr) bool {
	fn, ok := info.ObjectOf(sel.Sel).(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Registry" && obj.Pkg() != nil && obj.Pkg().Name() == "metrics"
}
