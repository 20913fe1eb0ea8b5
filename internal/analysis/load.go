package analysis

import (
	"bytes"
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
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listedPkg is the slice of `go list -json` output the loader consumes.
type listedPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Standard   bool
}

// goList shells out to `go list -export -deps` for the patterns and returns
// the decoded package records. Building export data uses only the local
// toolchain and build cache, so the loader works fully offline.
func goList(dir string, patterns []string) ([]listedPkg, error) {
	args := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,DepOnly,Standard",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var pkgs []listedPkg
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list decode: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter satisfies types.Importer by reading compiler export data
// produced by `go list -export`.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// typeCheck parses and type-checks one package's files against export data.
func typeCheck(fset *token.FileSet, imp types.Importer, importPath, dir string, goFiles []string) (*Package, error) {
	var files []*ast.File
	for _, gf := range goFiles {
		name := gf
		if !filepath.IsAbs(name) {
			name = filepath.Join(dir, gf)
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
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
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", importPath, err)
	}
	return &Package{Path: importPath, Dir: dir, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

// Load loads, parses and type-checks the packages matching the patterns
// (e.g. "./...") relative to dir. Only the matched packages are returned;
// their dependencies are consumed as export data. Test files are not
// loaded: peachlint checks shipped code, the runtime suites check the
// tests.
func Load(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	var out []*Package
	for _, p := range listed {
		if p.DepOnly || p.Standard || len(p.GoFiles) == 0 {
			continue
		}
		pkg, err := typeCheck(fset, imp, p.ImportPath, p.Dir, p.GoFiles)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// LoadDir loads a single directory of Go files as the package importPath,
// resolving its imports with `go list -export`. It exists for the
// analysistest harness: testdata packages live outside the module's package
// graph but still need real type-checking, and some analyzers (detsource,
// rnggate) decide behaviour from the import path, which the caller fakes
// here (e.g. a testdata package posing as repro/internal/core). moduleDir
// anchors import resolution so "repro/..." imports resolve.
func LoadDir(moduleDir, dir, importPath string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var goFiles []string
	for _, e := range ents {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".go" {
			goFiles = append(goFiles, e.Name()) // typeCheck joins with dir
		}
	}
	if len(goFiles) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	// Collect the imports by parsing just the file headers.
	hdrFset := token.NewFileSet()
	importSet := map[string]bool{}
	for _, gf := range goFiles {
		f, err := parser.ParseFile(hdrFset, filepath.Join(dir, gf), nil, parser.ImportsOnly)
		if err != nil {
			return nil, err
		}
		for _, im := range f.Imports {
			path := im.Path.Value
			importSet[path[1:len(path)-1]] = true
		}
	}
	exports := map[string]string{}
	if len(importSet) > 0 {
		patterns := make([]string, 0, len(importSet))
		for p := range importSet {
			patterns = append(patterns, p)
		}
		listed, err := goList(moduleDir, patterns)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}
	fset := token.NewFileSet()
	return typeCheck(fset, exportImporter(fset, exports), importPath, dir, goFiles)
}
