package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one package of the module, parsed with comments and
// type-checked by LoadModule.
type Package struct {
	Path  string // import path
	Dir   string
	Files []*ast.File // non-test files, sorted by name
	Types *types.Package
	Info  *types.Info

	srcs map[string][]byte // file path → raw bytes
	deps []string          // module-internal imports
}

// Module is the loaded Go module under analysis.
type Module struct {
	Path  string // module path from go.mod
	Dir   string // directory containing go.mod
	GoMod string // raw go.mod contents
	Fset  *token.FileSet
	Pkgs  []*Package // topologically sorted, dependencies first

	byPath   map[string]*Package
	importer types.Importer
}

// LoadModule locates the go.mod at or above dir, parses every non-test
// .go file of the module once (with comments), orders the packages
// dependencies-first and type-checks them in that order, so each
// package's module-internal imports resolve to already-checked packages.
func LoadModule(dir string) (*Module, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, modPath, goMod, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	mod := &Module{
		Path:   modPath,
		Dir:    root,
		GoMod:  goMod,
		Fset:   token.NewFileSet(),
		byPath: make(map[string]*Package),
	}
	mod.importer = &moduleImporter{
		mod: mod,
		std: importer.ForCompiler(mod.Fset, "source", nil),
	}

	if err := mod.parseAll(); err != nil {
		return nil, err
	}
	if mod.Pkgs, err = mod.topoSort(); err != nil {
		return nil, err
	}
	for _, pkg := range mod.Pkgs {
		if err := mod.check(pkg); err != nil {
			return nil, err
		}
	}
	return mod, nil
}

// findModule walks upward from dir to the nearest go.mod.
func findModule(dir string) (root, modPath, goMod string, err error) {
	for d := dir; ; {
		data, rerr := os.ReadFile(filepath.Join(d, "go.mod"))
		if rerr == nil {
			mp := parseModulePath(string(data))
			if mp == "" {
				return "", "", "", fmt.Errorf("lint: %s/go.mod has no module directive", d)
			}
			return d, mp, string(data), nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", "", fmt.Errorf("lint: no go.mod found at or above %s", dir)
		}
		d = parent
	}
}

func parseModulePath(goMod string) string {
	for _, line := range strings.Split(goMod, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// parseAll discovers every package directory (skipping testdata, hidden
// and underscore-prefixed directories) and parses its non-test files.
func (m *Module) parseAll() error {
	return filepath.WalkDir(m.Dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != m.Dir && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		pkg := &Package{Dir: path, srcs: make(map[string][]byte)}
		depSet := make(map[string]bool)
		for _, e := range entries {
			fn := e.Name()
			if e.IsDir() || !strings.HasSuffix(fn, ".go") || strings.HasSuffix(fn, "_test.go") {
				continue
			}
			full := filepath.Join(path, fn)
			src, rerr := os.ReadFile(full)
			if rerr != nil {
				return rerr
			}
			f, perr := parser.ParseFile(m.Fset, full, src, parser.ParseComments)
			if perr != nil {
				return fmt.Errorf("lint: %w", perr)
			}
			pkg.Files = append(pkg.Files, f)
			pkg.srcs[full] = src
			for _, spec := range f.Imports {
				ip := strings.Trim(spec.Path.Value, `"`)
				if ip == m.Path || strings.HasPrefix(ip, m.Path+"/") {
					depSet[ip] = true
				}
			}
		}
		if len(pkg.Files) == 0 {
			return nil
		}
		rel, err := filepath.Rel(m.Dir, path)
		if err != nil {
			return err
		}
		pkg.Path = m.Path
		if rel != "." {
			pkg.Path = m.Path + "/" + filepath.ToSlash(rel)
		}
		for dep := range depSet {
			pkg.deps = append(pkg.deps, dep)
		}
		sort.Strings(pkg.deps)
		m.byPath[pkg.Path] = pkg
		return nil
	})
}

// topoSort orders packages dependencies-first so type-checking can
// resolve module-internal imports from already-checked packages.
func (m *Module) topoSort() ([]*Package, error) {
	paths := make([]string, 0, len(m.byPath))
	for p := range m.byPath {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make(map[string]int, len(paths))
	var ordered []*Package
	var visit func(path string) error
	visit = func(path string) error {
		pkg, ok := m.byPath[path]
		if !ok {
			return fmt.Errorf("lint: import %q not found in module", path)
		}
		switch state[path] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("lint: import cycle through %q", path)
		}
		state[path] = visiting
		for _, dep := range pkg.deps {
			if err := visit(dep); err != nil {
				return err
			}
		}
		state[path] = done
		ordered = append(ordered, pkg)
		return nil
	}
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return ordered, nil
}

// check type-checks pkg with full info recording. Dependencies must be
// checked already (LoadModule's topological order guarantees it).
func (m *Module) check(pkg *Package) error {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: m.importer}
	tpkg, err := conf.Check(pkg.Path, m.Fset, pkg.Files, info)
	if err != nil {
		return fmt.Errorf("lint: type-checking %s: %w", pkg.Path, err)
	}
	pkg.Types = tpkg
	pkg.Info = info
	return nil
}

// CheckPackage parses and type-checks the given source files as a
// standalone package with the given import path, resolving imports
// against this module. Golden-fixture tests use it to lint testdata
// files that the module walk deliberately skips. With typecheck false
// the files are only parsed (for fixtures that import unresolvable
// paths on purpose); analyzers run on such a package must not consult
// type info.
func (m *Module) CheckPackage(path string, filenames []string, typecheck bool) (*Package, error) {
	pkg := &Package{Path: path, srcs: make(map[string][]byte)}
	for _, fn := range filenames {
		src, err := os.ReadFile(fn)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		f, perr := parser.ParseFile(m.Fset, fn, src, parser.ParseComments)
		if perr != nil {
			return nil, fmt.Errorf("lint: %w", perr)
		}
		pkg.Files = append(pkg.Files, f)
		pkg.srcs[fn] = src
	}
	if !typecheck {
		pkg.Info = &types.Info{}
		return pkg, nil
	}
	if err := m.check(pkg); err != nil {
		return nil, err
	}
	return pkg, nil
}

// moduleImporter resolves module-internal imports from the already
// type-checked packages and everything else from GOROOT source; the
// source importer's internal package cache keeps repeat imports cheap.
type moduleImporter struct {
	mod *Module
	std types.Importer
}

func (mi *moduleImporter) Import(path string) (*types.Package, error) {
	return mi.ImportFrom(path, "", 0)
}

func (mi *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if pkg, ok := mi.mod.byPath[path]; ok {
		if pkg.Types == nil {
			return nil, fmt.Errorf("lint: %s imported before it was checked (cycle?)", path)
		}
		return pkg.Types, nil
	}
	if path == mi.mod.Path || strings.HasPrefix(path, mi.mod.Path+"/") {
		return nil, fmt.Errorf("lint: module package %s not found", path)
	}
	if from, ok := mi.std.(types.ImporterFrom); ok {
		return from.ImportFrom(path, dir, mode)
	}
	return mi.std.Import(path)
}
