// Package analysis is provrpq's repo-specific static-analysis suite: a
// small, dependency-free reimplementation of the golang.org/x/tools
// go/analysis shape (Analyzer, Pass, diagnostics, an analysistest-style
// golden harness) plus analyzers keyed to the engine's safety invariants —
// immutability of published plans and labels, copy-on-write aliasing
// discipline over trusted/mmap buffers, the store's
// write→fsync→rename→dir-fsync commit order, the errors.Is wrapping
// contract on store/catalog/server error paths, and the interprocedural
// lock-order, goroutine-exit and context-flow checks.
//
// The suite is driven by cmd/provlint and is wired into CI as a required
// job; see the README's "Static analysis" section for the annotation
// syntax (//provrpq:immutable, //provrpq:trusted, //provrpq:mutator,
// //provrpq:fsyncsafe) and the suppression directive (//provlint:ignore).
//
// Why not golang.org/x/tools/go/analysis itself: the module is
// deliberately dependency-free (go.mod has no requirements), so the
// framework here reproduces the pieces the suite needs — package loading
// via `go list`, types from compiler export data, per-package passes —
// in a few hundred lines.
package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package under analysis.
type Package struct {
	Path  string
	Dir   string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	Fset  *token.FileSet
}

// listedPkg is the subset of `go list -json` output the loader consumes.
type listedPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Standard   bool
	Incomplete bool
	Error      *struct{ Err string }
}

// Loader loads packages for analysis: target packages are parsed and
// type-checked from source (with full function bodies and comments), while
// every dependency — standard library and module-internal alike — is
// imported from compiler export data produced by `go list -deps -export`.
// Export data carries exact types without the cost or fragility of
// type-checking dependency sources, and works offline from the build
// cache.
type Loader struct {
	Fset *token.FileSet

	// exports maps import path -> export data file, accumulated across
	// go list invocations so repeated LoadDir calls (the test harness)
	// list each dependency set at most once.
	exports map[string]string
	imp     types.Importer
}

// NewLoader returns a loader with an empty export-data cache.
func NewLoader() *Loader {
	l := &Loader{Fset: token.NewFileSet(), exports: map[string]string{}}
	l.imp = importer.ForCompiler(l.Fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := l.exports[path]
		if !ok || f == "" {
			return nil, fmt.Errorf("no export data for %q (not listed by go list -deps)", path)
		}
		return os.Open(f)
	})
	return l
}

// goList runs `go list -deps -export -json` on the patterns and folds the
// result into the export cache, returning the listed packages in
// dependency-first order. CGO is disabled so the file sets are
// self-contained Go.
func (l *Loader) goList(dir string, patterns []string) ([]listedPkg, error) {
	args := append([]string{"list", "-deps", "-export", "-json=ImportPath,Dir,Export,GoFiles,DepOnly,Standard,Incomplete,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var errBuf strings.Builder
	cmd.Stderr = &errBuf
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %s: %v\n%s", strings.Join(patterns, " "), err, errBuf.String())
	}
	dec := json.NewDecoder(strings.NewReader(string(out)))
	var pkgs []listedPkg
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: parsing go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("analysis: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// Load lists the patterns (relative to dir; "" means the current
// directory) and returns the matched packages — the non-DepOnly ones —
// parsed and type-checked from source.
func (l *Loader) Load(dir string, patterns ...string) ([]*Package, error) {
	listed, err := l.goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, p := range listed {
		if p.DepOnly {
			continue
		}
		pkg, err := l.check(p.ImportPath, p.Dir, p.GoFiles)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// LoadDir loads one directory as a single package, resolving its imports
// through `go list` on the import paths themselves. This is the test
// harness's entry point: testdata packages are excluded from "./..."
// wildcards, so they are listed indirectly via their dependencies.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %v", err)
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, e.Name())
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	sort.Strings(files)
	// Parse first to learn the import set, then list whatever is missing
	// from the export cache.
	parsed, err := l.parse(dir, files)
	if err != nil {
		return nil, err
	}
	var missing []string
	for _, f := range parsed {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path != "unsafe" && l.exports[path] == "" {
				missing = append(missing, path)
			}
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		if _, err := l.goList(dir, missing); err != nil {
			return nil, err
		}
	}
	return l.checkParsed("provlint.test/"+filepath.Base(dir), dir, parsed)
}

func (l *Loader) parse(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: %v", err)
		}
		files = append(files, f)
	}
	return files, nil
}

func (l *Loader) check(path, dir string, names []string) (*Package, error) {
	files, err := l.parse(dir, names)
	if err != nil {
		return nil, err
	}
	return l.checkParsed(path, dir, files)
}

func (l *Loader) checkParsed(path, dir string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: l.imp}
	pkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %v", path, err)
	}
	return &Package{Path: path, Dir: dir, Files: files, Pkg: pkg, Info: info, Fset: l.Fset}, nil
}
