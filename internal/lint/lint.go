// Package lint is sisg's project-specific static analyzer suite. It loads
// every package in the module with stdlib go/parser + go/types (no external
// dependencies) and checks invariants the runtime test suite can only catch
// probabilistically, or not at all:
//
//   - maporder:   map iteration accumulating into ordered output without a
//     sort step, in determinism-critical packages — unsorted map ranges are
//     exactly the bug class that makes same-seed runs diverge.
//   - globalrand: use of math/rand (global, mutex-guarded, unseeded by
//     default) or time-derived seeds instead of internal/rng streams.
//   - atomicmix:  a struct field accessed through sync/atomic in one place
//     and by plain load/store in another (the noiseFor race, PR 1).
//   - errsink:    discarded error returns from Write/Sync/Close/Flush in
//     checkpoint, seqio, server and cmd paths.
//   - metricname: metric registrations whose name argument is not a
//     compile-time constant (unbounded label cardinality).
//   - netdeadline: net.Conn reads/writes in transport (dist) code with no
//     preceding Set*Deadline on the same connection — the undeadlined read
//     that hangs a goroutine forever under a one-way partition.
//
// Three analyzers reason across function boundaries through the shared
// dataflow layer (flow.go): a deterministic intra-module call graph plus
// per-function summaries, built once per Module:
//
//   - ctxflow:  a request-path function that receives a context must pass
//     it to every blocking callee that accepts one; context.Background()/
//     TODO() and ctx-in-struct-field are findings in server/sisg/knn.
//   - goleak:   every `go` statement in dist/server/knn needs a provable
//     termination path — WaitGroup-bound, done/ctx-channel select, range
//     over a closable channel, or a buffered result send.
//   - lockhold: no blocking work (net I/O, channel ops, sleeps, blocking
//     helpers per the flow summaries) while a sync.Mutex/RWMutex is held,
//     in dist/server/knn/metrics.
//
// A diagnostic can be suppressed with a comment:
//
//	//lint:allow <check> <one-line reason>
//
// placed either at the end of the offending line or on its own line
// directly above it. Each comment covers a single source line, so a
// suppression never silences more than it names. Suppressions are audited:
// after a Lint pass, StaleAllows reports every allow comment that
// suppressed nothing, names a check that does not exist or gives no
// reason, so dead or unexplained suppressions cannot accumulate.
//
// Only non-test files are analyzed: _test.go files may use math/rand,
// unsorted iteration, etc. freely.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding, pinned to a source position.
type Diagnostic struct {
	Pos     token.Position // file:line:col of the offending node
	Check   string         // analyzer name, e.g. "maporder"
	Message string
}

// String renders the canonical human form: file:line:col: check: message.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Analyzer is one invariant checker. Run is invoked once per package and
// returns raw diagnostics; the framework applies //lint:allow suppression.
type Analyzer struct {
	Name string
	Run  func(m *Module, pkg *Package) []Diagnostic
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		MapOrder(),
		GlobalRand(),
		AtomicMix(),
		ErrSink(),
		MetricName(),
		NetDeadline(),
		CtxFlow(),
		GoLeak(),
		LockHold(),
	}
}

// Lint runs the analyzers over every loaded package, drops suppressed
// diagnostics, and returns the rest sorted by position.
func (m *Module) Lint(analyzers ...*Analyzer) []Diagnostic {
	if len(analyzers) == 0 {
		analyzers = Analyzers()
	}
	var out []Diagnostic
	for _, pkg := range m.Pkgs {
		for _, a := range analyzers {
			for _, d := range a.Run(m, pkg) {
				d.Check = a.Name
				if !pkg.allowed(d) {
					out = append(out, d)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return out
}

// allow is one parsed //lint:allow comment: it suppresses diagnostics of
// the named check on a single source line. used is set when it actually
// suppresses something, so StaleAllows can report dead suppressions.
type allow struct {
	check  string
	reason string
	line   int
	pos    token.Position // where the comment itself sits
	used   bool
}

// allowed reports whether d is suppressed by an allow comment in its
// file, marking the comment as earning its keep.
func (p *Package) allowed(d Diagnostic) bool {
	for _, f := range p.Files {
		if f.Path != d.Pos.Filename {
			continue
		}
		for i := range f.allows {
			a := &f.allows[i]
			if a.check == d.Check && a.line == d.Pos.Line {
				a.used = true
				return true
			}
		}
	}
	return false
}

// StaleAllows audits the //lint:allow comments after a Lint pass with the
// same analyzers: a comment that suppressed nothing is a finding (the code
// under it improved, or the line drifted — either way the suppression is
// dead and would silently swallow the next real diagnostic), and so is a
// comment naming a check that does not exist or giving no reason. Only
// allows for checks in the given set are judged stale, so a run of one
// analyzer never condemns suppressions it did not exercise; pass none to
// audit against the full suite.
func (m *Module) StaleAllows(analyzers ...*Analyzer) []Diagnostic {
	if len(analyzers) == 0 {
		analyzers = Analyzers()
	}
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	var out []Diagnostic
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			for i := range f.allows {
				a := &f.allows[i]
				switch {
				case !known[a.check]:
					out = append(out, Diagnostic{
						Pos:     a.pos,
						Check:   "allows",
						Message: fmt.Sprintf("//lint:allow names unknown check %q; it suppresses nothing", a.check),
					})
				case a.reason == "":
					out = append(out, Diagnostic{
						Pos:     a.pos,
						Check:   "allows",
						Message: fmt.Sprintf("//lint:allow %s gives no reason; say why the finding is acceptable", a.check),
					})
				case ran[a.check] && !a.used:
					out = append(out, Diagnostic{
						Pos:     a.pos,
						Check:   "allows",
						Message: fmt.Sprintf("stale //lint:allow %s: no %s finding on line %d to suppress", a.check, a.check, a.line),
					})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
	return out
}

const allowPrefix = "//lint:allow "

// parseAllows extracts //lint:allow comments from a parsed file. A comment
// at the end of a code line covers that line; a comment alone on its line
// covers the line below it.
func parseAllows(fset *token.FileSet, file *ast.File, src []byte) []allow {
	var out []allow
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, allowPrefix) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(c.Text, allowPrefix))
			check, reason, _ := strings.Cut(rest, " ")
			if check == "" {
				continue
			}
			pos := fset.Position(c.Slash)
			line := pos.Line
			if standalone(src, pos.Offset) {
				line++
			}
			out = append(out, allow{check: check, reason: strings.TrimSpace(reason), line: line, pos: pos})
		}
	}
	return out
}

// standalone reports whether the comment starting at offset is the first
// non-blank content on its line.
func standalone(src []byte, offset int) bool {
	for i := offset - 1; i >= 0; i-- {
		switch src[i] {
		case '\n':
			return true
		case ' ', '\t', '\r':
			continue
		default:
			return false
		}
	}
	return true // start of file
}

// pathHasSegment reports whether any "/"-separated segment of the package
// import path equals one of names. Used to scope analyzers to the
// determinism-critical or durability-critical parts of the tree.
func pathHasSegment(path string, names ...string) bool {
	for _, seg := range strings.Split(path, "/") {
		for _, n := range names {
			if seg == n {
				return true
			}
		}
	}
	return false
}

// scopedTo reports whether pkg sits under one of the named segments of
// its module-relative import path. The flow analyzers scope with this
// rather than pathHasSegment because the module is itself named "sisg":
// judged on the full import path, a scope containing "sisg" would match
// every package in the tree instead of just internal/sisg.
func scopedTo(m *Module, pkg *Package, names ...string) bool {
	rel := strings.TrimPrefix(pkg.Path, m.Path)
	rel = strings.TrimPrefix(rel, "/")
	if rel == "" {
		// The module root package: judge by the module path's own last
		// segment, so a fixture module named example.com/server is "in"
		// server the way internal/server is.
		rel = m.Path[strings.LastIndex(m.Path, "/")+1:]
	}
	return pathHasSegment(rel, names...)
}

// objOf resolves an expression to the object it names, unwrapping parens:
// an identifier or a field/package-qualified selector. Returns nil for
// anything more complex.
func objOf(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.ObjectOf(e)
	case *ast.SelectorExpr:
		return info.ObjectOf(e.Sel)
	}
	return nil
}

// mentionsObj reports whether the subtree rooted at n references obj.
func mentionsObj(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && info.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}
