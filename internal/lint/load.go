package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// File is one parsed, non-test source file.
type File struct {
	Path   string // filesystem path, as it appears in diagnostics
	AST    *ast.File
	Src    []byte
	allows []allow
}

// Package is one type-checked package of the module under analysis.
type Package struct {
	Path  string // import path, e.g. "sisg/internal/graph"
	Name  string
	Dir   string
	Files []*File
	Types *types.Package
	Info  *types.Info
}

// Module is a fully loaded, type-checked module tree.
type Module struct {
	Fset   *token.FileSet
	Path   string     // module path from go.mod (or the override passed to Load)
	Pkgs   []*Package // dependency order
	byPath map[string]*Package
	flow   *Flow // lazily built dataflow layer, shared by all analyzers
}

// Load parses and type-checks every non-test package under root.
//
// modPath names the module; when empty it is read from root's go.mod.
// Module-local imports resolve against the tree being loaded, and
// standard-library imports come from the toolchain's export data through
// go/importer's "gc" importer, so the whole pipeline is pure stdlib.
// Directories named testdata or vendor, and hidden/underscore directories,
// are skipped; _test.go files are never loaded (test code is exempt from
// project invariants).
func Load(root, modPath string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	if modPath == "" {
		modPath, err = readModulePath(filepath.Join(root, "go.mod"))
		if err != nil {
			return nil, err
		}
	}

	fset := token.NewFileSet()
	m := &Module{Fset: fset, Path: modPath, byPath: make(map[string]*Package)}

	dirs, err := sourceDirs(root)
	if err != nil {
		return nil, err
	}
	for _, dir := range dirs {
		pkg, err := parseDir(fset, root, modPath, dir)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			continue // no non-test Go files
		}
		m.Pkgs = append(m.Pkgs, pkg)
		m.byPath[pkg.Path] = pkg
	}

	if err := m.sortByDeps(); err != nil {
		return nil, err
	}
	return m, m.typeCheck()
}

// Package returns the loaded package with the given import path, or nil.
func (m *Module) Package(path string) *Package { return m.byPath[path] }

// readModulePath extracts the module path from a go.mod file.
func readModulePath(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: %w (pass an explicit module path to Load?)", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// sourceDirs lists every directory under root that may hold package
// sources, in deterministic (lexical walk) order.
func sourceDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	return dirs, err
}

// parseDir parses the non-test Go files of one directory, or returns nil
// if there are none.
func parseDir(fset *token.FileSet, root, modPath, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*File
	name := ""
	for _, e := range entries {
		fn := e.Name()
		if e.IsDir() || !strings.HasSuffix(fn, ".go") || strings.HasSuffix(fn, "_test.go") {
			continue
		}
		// The files `go build` compiles on this platform: _GOOS/_GOARCH
		// name suffixes and //go:build lines, as go/build evaluates them,
		// so tag-guarded duplicate symbols never collide in type checking.
		match, err := build.Default.MatchFile(dir, fn)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		if !match {
			continue
		}
		path := filepath.Join(dir, fn)
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		af, err := parser.ParseFile(fset, path, src, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		if name == "" {
			name = af.Name.Name
		} else if af.Name.Name != name {
			return nil, fmt.Errorf("lint: %s: files for two packages (%s, %s) in one directory", dir, name, af.Name.Name)
		}
		files = append(files, &File{Path: path, AST: af, Src: src, allows: parseAllows(fset, af, src)})
	}
	if len(files) == 0 {
		return nil, nil
	}
	imp := modPath
	if rel, err := filepath.Rel(root, dir); err == nil && rel != "." {
		imp = modPath + "/" + filepath.ToSlash(rel)
	}
	return &Package{Path: imp, Name: name, Dir: dir, Files: files}, nil
}

// localImports lists the module-internal import paths of a parsed package.
func (m *Module) localImports(p *Package) []string {
	seen := make(map[string]bool)
	var out []string
	for _, f := range p.Files {
		for _, spec := range f.AST.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				continue
			}
			if (path == m.Path || strings.HasPrefix(path, m.Path+"/")) && !seen[path] {
				seen[path] = true
				out = append(out, path)
			}
		}
	}
	sort.Strings(out)
	return out
}

// sortByDeps orders m.Pkgs so every package follows its module-local
// dependencies (stdlib imports have no ordering constraints).
func (m *Module) sortByDeps() error {
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make(map[string]int, len(m.Pkgs))
	var order []*Package
	var visit func(p *Package, chain []string) error
	visit = func(p *Package, chain []string) error {
		switch state[p.Path] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("lint: import cycle: %s -> %s", strings.Join(chain, " -> "), p.Path)
		}
		state[p.Path] = visiting
		for _, dep := range m.localImports(p) {
			dp := m.byPath[dep]
			if dp == nil {
				return fmt.Errorf("lint: %s imports %s, which is not in the loaded tree", p.Path, dep)
			}
			if err := visit(dp, append(chain, p.Path)); err != nil {
				return err
			}
		}
		state[p.Path] = done
		order = append(order, p)
		return nil
	}
	for _, p := range m.Pkgs {
		if err := visit(p, nil); err != nil {
			return err
		}
	}
	m.Pkgs = order
	return nil
}

// moduleImporter resolves imports during type checking: module-local paths
// from the packages already checked, everything else (the standard
// library) from the toolchain's export data.
type moduleImporter struct {
	m   *Module
	std types.Importer
}

func (mi *moduleImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p := mi.m.byPath[path]; p != nil {
		if p.Types == nil {
			return nil, fmt.Errorf("lint: import %q before it was checked (loader ordering bug)", path)
		}
		return p.Types, nil
	}
	return mi.std.Import(path)
}

// typeCheck runs go/types over every package in dependency order.
func (m *Module) typeCheck() error {
	imp := &moduleImporter{m: m, std: importer.ForCompiler(m.Fset, "gc", nil)}
	for _, p := range m.Pkgs {
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
		}
		cfg := types.Config{Importer: imp}
		asts := make([]*ast.File, len(p.Files))
		for i, f := range p.Files {
			asts[i] = f.AST
		}
		tp, err := cfg.Check(p.Path, m.Fset, asts, info)
		if err != nil {
			return fmt.Errorf("lint: type-checking %s: %w", p.Path, err)
		}
		p.Types, p.Info = tp, info
	}
	return nil
}
