// Package load parses and type-checks the packages of this module for
// static analysis, without shelling out to the go tool or requiring
// network access. Module-internal imports are resolved against the
// module root; standard-library imports are type-checked from GOROOT
// source via go/importer's "source" compiler. The module has no
// external dependencies, so these two sources are complete.
package load

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package.
type Package struct {
	// Path is the import path ("peerlearn/internal/core").
	Path string
	// Dir is the absolute directory holding the sources.
	Dir string
	// Files holds the parsed non-test sources, ordered by file name.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info holds the type-checker's expression facts.
	Info *types.Info
}

// Loader loads packages of a single module. It memoizes packages, so a
// Loader must not be used concurrently.
type Loader struct {
	// Fset maps positions for every package this loader touches.
	Fset *token.FileSet

	// Tests makes Load also type-check each package's _test.go files:
	// the in-package test variant (base files re-checked together with
	// the package's own test files, reported as "path [tests]") and the
	// external "path_test" package, when either exists.
	Tests bool

	moduleRoot string
	modulePath string
	std        types.Importer
	pkgs       map[string]*Package
	loading    map[string]bool
}

// NewLoader returns a loader for the module rooted at root (the
// directory containing go.mod).
func NewLoader(root string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modulePath, err := readModulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		moduleRoot: abs,
		modulePath: modulePath,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
	}, nil
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("load: no go.mod found above %s", dir)
		}
		abs = parent
	}
}

func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("load: no module directive in %s", gomod)
}

// Load resolves the patterns ("./...", "./internal/core", an import
// path, or a directory) to packages, loads each, and returns them
// sorted by import path.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs := map[string]bool{}
	for _, pat := range patterns {
		recursive := false
		if p, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive, pat = true, p
		} else if pat == "..." {
			recursive, pat = true, "."
		}
		dir := pat
		if strings.HasPrefix(pat, l.modulePath) {
			dir = "." + strings.TrimPrefix(pat, l.modulePath)
		}
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(l.moduleRoot, dir)
		}
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			return nil, fmt.Errorf("load: pattern %q: no such directory %s", pat, dir)
		}
		if !recursive {
			dirs[dir] = true
			continue
		}
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != dir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			// A directory with its own go.mod is a nested module, which
			// "./..." excludes, as it does for the go command.
			if path != l.moduleRoot {
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			if hasGoFiles(path) {
				dirs[path] = true
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	var pkgs []*Package
	for dir := range dirs {
		pkg, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
		if l.Tests {
			tests, err := l.loadTests(pkg)
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, tests...)
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// loadTests parses the _test.go files next to base and returns the
// in-package test variant and/or the external test package. Neither is
// memoized: importers must keep resolving base's path to the
// library-only build, exactly as the go tool compiles it for
// dependants.
func (l *Loader) loadTests(base *Package) ([]*Package, error) {
	entries, err := os.ReadDir(base.Dir)
	if err != nil {
		return nil, err
	}
	var inPkg, external []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(base.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if !includeInBuild(f) {
			continue
		}
		if f.Name.Name == base.Types.Name()+"_test" {
			external = append(external, f)
		} else {
			inPkg = append(inPkg, f)
		}
	}
	var out []*Package
	if len(inPkg) > 0 {
		files := append(append([]*ast.File(nil), base.Files...), inPkg...)
		pkg, err := CheckFiles(l.Fset, base.Dir, base.Path, files, l)
		if err != nil {
			return nil, err
		}
		pkg.Path += " [tests]"
		out = append(out, pkg)
	}
	if len(external) > 0 {
		pkg, err := CheckFiles(l.Fset, base.Dir, base.Path+"_test", external, l)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// defaultBuildTag reports whether a build tag holds in the loader's
// view: a default build on the host platform. Tags of special builds
// ("race", "purego", custom -tags values) evaluate false, so e.g. a
// `//go:build race` test helper is excluded exactly as `go test`
// without -race excludes it.
func defaultBuildTag(tag string) bool {
	switch tag {
	case runtime.GOOS, runtime.GOARCH, "gc":
		return true
	}
	// Release tags: go1.1 through the toolchain's own version are set.
	if strings.HasPrefix(tag, "go1") {
		return true
	}
	return false
}

// includeInBuild reports whether the parsed file participates in a
// default build, per its //go:build constraint (files without one
// always participate).
func includeInBuild(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break // constraints must precede the package clause
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				return true // malformed: let the type-checker complain
			}
			return expr.Eval(defaultBuildTag)
		}
	}
	return true
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// importPathFor maps an absolute directory inside the module to its
// import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.moduleRoot, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("load: %s is outside module %s", dir, l.moduleRoot)
	}
	if rel == "." {
		return l.modulePath, nil
	}
	return l.modulePath + "/" + filepath.ToSlash(rel), nil
}

// dirForImport maps a module-internal import path to its directory.
func (l *Loader) dirForImport(path string) string {
	rel := strings.TrimPrefix(path, l.modulePath)
	return filepath.Join(l.moduleRoot, filepath.FromSlash(strings.TrimPrefix(rel, "/")))
}

func (l *Loader) loadDir(dir string) (*Package, error) {
	path, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	return l.loadPath(path)
}

func (l *Loader) loadPath(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("load: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.dirForImport(path)
	pkg, err := CheckDir(l.Fset, dir, path, l)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// Import implements types.Importer: module-internal paths load from the
// module tree, everything else from GOROOT source.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/") {
		pkg, err := l.loadPath(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// CheckDir parses and type-checks the single package in dir under the
// given import path, resolving its imports through imp. It is the
// shared core of Loader and the analysistest fixture loader.
func CheckDir(fset *token.FileSet, dir, path string, imp types.Importer) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if !includeInBuild(f) {
			continue
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("load: no non-test Go files in %s", dir)
	}
	return CheckFiles(fset, dir, path, files, imp)
}

// CheckFiles type-checks already-parsed files as one package under the
// given import path. Callers assembling file sets themselves — the test
// variants of Loader — use this directly.
func CheckFiles(fset *token.FileSet, dir, path string, files []*ast.File, imp types.Importer) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("load: type errors in %s: %v", path, typeErrs[0])
	}
	return &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}, nil
}

// StdImporter returns a source-based importer for standard-library
// packages sharing fset, for callers (like analysistest) that load
// fixture packages outside any module.
func StdImporter(fset *token.FileSet) types.Importer {
	return importer.ForCompiler(fset, "source", nil)
}
