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
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	Path  string // import path (module-relative, e.g. "repro/internal/cs")
	Dir   string // absolute directory
	Name  string // package name from the source
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of one module using only the
// standard library. Imports within the module are resolved recursively
// from source; all other imports (the standard library — the module has
// no external dependencies) go through go/importer's source compiler.
//
// Only non-test files are loaded: the invariants sdlint guards are
// library-code contracts, and several checks explicitly exempt tests
// (tests may print, tests may measure wall time).
type Loader struct {
	Root   string // module root: the directory containing go.mod
	Module string // module path from go.mod

	fset  *token.FileSet
	std   types.Importer
	cache map[string]*loadEntry
}

type loadEntry struct {
	pkg *Package
	err error
}

// NewLoader builds a loader for the module rooted at root. The module
// path is read from root/go.mod.
func NewLoader(root string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Root:   abs,
		Module: mod,
		fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil),
		cache:  map[string]*loadEntry{},
	}, nil
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// Import implements types.Importer: module-local paths load recursively
// from source, everything else is delegated to the stdlib importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		pkg, err := l.LoadDir(l.dirFor(path))
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

func (l *Loader) dirFor(importPath string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(importPath, l.Module), "/")
	return filepath.Join(l.Root, filepath.FromSlash(rel))
}

func (l *Loader) pathFor(dir string) string {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil || rel == "." {
		return l.Module
	}
	return l.Module + "/" + filepath.ToSlash(rel)
}

// LoadDir parses and type-checks the package in dir (memoized).
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	path := l.pathFor(abs)
	if e, ok := l.cache[path]; ok {
		return e.pkg, e.err
	}
	// Reserve the slot first so an import cycle fails fast instead of
	// recursing forever.
	l.cache[path] = &loadEntry{err: fmt.Errorf("lint: import cycle through %s", path)}
	pkg, err := l.loadDir(abs, path)
	l.cache[path] = &loadEntry{pkg: pkg, err: err}
	return pkg, err
}

func (l *Loader) loadDir(dir, path string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") ||
			strings.HasSuffix(n, "_test.go") || strings.HasPrefix(n, ".") {
			continue
		}
		// The files the go tool builds for this GOOS/GOARCH: a package
		// with per-architecture files declares their names once per build.
		ok, err := build.Default.MatchFile(dir, n)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		names = append(names, n)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	sort.Strings(names)
	files := make([]*ast.File, 0, len(names))
	for _, n := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, n), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-check %s: %w", path, err)
	}
	return &Package{
		Path:  path,
		Dir:   dir,
		Name:  tpkg.Name(),
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

// Load resolves package patterns relative to the module root and loads
// every matched package. A pattern is either a directory ("./internal/cs")
// or a recursive "..." pattern ("./...", "./internal/..."). Directories
// named testdata or vendor and hidden directories are never matched by
// "..." (mirroring the go tool).
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	var dirs []string
	seen := map[string]bool{}
	for _, pat := range patterns {
		expanded, err := l.expand(pat)
		if err != nil {
			return nil, err
		}
		for _, d := range expanded {
			if !seen[d] {
				seen[d] = true
				dirs = append(dirs, d)
			}
		}
	}
	sort.Strings(dirs)
	pkgs := make([]*Package, 0, len(dirs))
	for _, d := range dirs {
		pkg, err := l.LoadDir(d)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

func (l *Loader) expand(pattern string) ([]string, error) {
	base, recursive := strings.CutSuffix(pattern, "...")
	base = strings.TrimSuffix(base, "/")
	if base == "" || base == "." {
		base = l.Root
	} else if !filepath.IsAbs(base) {
		base = filepath.Join(l.Root, filepath.FromSlash(base))
	}
	if !recursive {
		return []string{base}, nil
	}
	var dirs []string
	err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			n := d.Name()
			if p != base && (n == "testdata" || n == "vendor" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") && !strings.HasSuffix(d.Name(), "_test.go") {
			dir := filepath.Dir(p)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return dirs, nil
}
