package analysis

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
)

// LoadDir loads a single directory of Go files as the package importPath,
// resolving its imports with `go list -export` — the analysistest
// harness's loader. Testdata packages live outside the module's package
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
