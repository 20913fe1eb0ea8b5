package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one peachlint check. The shape mirrors
// golang.org/x/tools/go/analysis so the checks could be ported onto the real
// framework wholesale if the module ever takes that dependency; peachlint
// deliberately reimplements only the slice it needs on the standard library.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in `want` comments.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run reports diagnostics for one type-checked package.
	Run func(*Pass)
}

// Pass carries one type-checked package through one analyzer, mirroring
// analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	dirs   *directiveIndex
	report func(Diagnostic)
}

// Reportf records a diagnostic at pos. Diagnostics suppressed by a
// //peachstar:nondeterministic directive are dropped by the driver.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding, positioned by token.Pos within the pass's
// FileSet.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Finding is a resolved diagnostic as emitted by RunPackage: positioned,
// attributed to its analyzer, and ready to print.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// DirNondeterministic is the one directive kind the suite understands: the
// escape hatch for detsource and rnggate. See the package documentation.
const DirNondeterministic = "nondeterministic"

// directiveIndex records where a package's well-formed directives sit, for
// suppression lookups, and its malformed ones as diagnostics.
type directiveIndex struct {
	// lines maps filename -> line -> whether a directive is on that line.
	lines map[string]map[int]bool
	errs  []Diagnostic
}

const directivePrefix = "//peachstar:"

// parseDirectives scans every comment in the files for //peachstar:
// directives, recording malformed ones as diagnostics so a typo can never
// silently disable a check — and a stale annotation for a retired kind
// cannot linger.
func parseDirectives(fset *token.FileSet, files []*ast.File) *directiveIndex {
	idx := &directiveIndex{lines: map[string]map[int]bool{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, directivePrefix)
				if !ok {
					continue
				}
				kind, reason, _ := strings.Cut(strings.TrimSpace(text), " ")
				switch {
				case kind != DirNondeterministic:
					idx.errs = append(idx.errs, Diagnostic{c.Pos(), fmt.Sprintf(
						"unknown directive //peachstar:%s (known: %s)", kind, DirNondeterministic)})
					continue
				case strings.TrimSpace(reason) == "":
					idx.errs = append(idx.errs, Diagnostic{c.Pos(), fmt.Sprintf(
						"//peachstar:%s requires a reason", kind)})
					continue
				}
				pos := fset.Position(c.Pos())
				if idx.lines[pos.Filename] == nil {
					idx.lines[pos.Filename] = map[int]bool{}
				}
				idx.lines[pos.Filename][pos.Line] = true
			}
		}
	}
	return idx
}

// Suppressed reports whether a well-formed directive covers pos: on the
// same line, the line above, or the doc comment of the enclosing function
// declaration.
func (p *Pass) Suppressed(pos token.Pos) bool {
	at := p.Fset.Position(pos)
	lines := p.dirs.lines[at.Filename]
	if lines[at.Line] || lines[at.Line-1] {
		return true
	}
	fn := enclosingFunc(p.Files, pos)
	if fn == nil || fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if lines[p.Fset.Position(c.Pos()).Line] {
			return true
		}
	}
	return false
}

// RunPackage runs the analyzers over one loaded package and returns the
// surviving findings (suppressed diagnostics dropped, directive parse
// errors included) sorted by position. It is the single entry point shared
// by cmd/peachlint, the analysistest harness, and the root
// self-application test.
func RunPackage(pkg *Package, analyzers []*Analyzer) []Finding {
	dirs := parseDirectives(pkg.Fset, pkg.Files)
	var out []Finding
	for _, d := range dirs.errs {
		out = append(out, Finding{"directive", pkg.Fset.Position(d.Pos), d.Message})
	}
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			dirs:      dirs,
		}
		pass.report = func(d Diagnostic) {
			if pass.Suppressed(d.Pos) {
				return
			}
			out = append(out, Finding{a.Name, pkg.Fset.Position(d.Pos), d.Message})
		}
		a.Run(pass)
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
		return a.Analyzer < b.Analyzer
	})
	return out
}

// usesOf returns the package-level object the identifier resolves to, or
// nil.
func usesOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// isBuiltinCall reports whether call invokes the named Go builtin
// (append, delete, make, ...), resolving the identifier so a local
// function shadowing the builtin name is not mistaken for it.
func isBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	b, ok := usesOf(info, id).(*types.Builtin)
	return ok && b.Name() == name
}

// pkgFunc resolves a call like pkgname.Func and returns the imported
// package path and function name, or "" if the call is not of that shape.
func pkgFunc(info *types.Info, call *ast.CallExpr) (pkgPath, name string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	pn, ok := usesOf(info, id).(*types.PkgName)
	if !ok {
		return "", ""
	}
	return pn.Imported().Path(), sel.Sel.Name
}

// enclosingFunc returns the function declaration containing pos, or nil.
func enclosingFunc(files []*ast.File, pos token.Pos) *ast.FuncDecl {
	for _, f := range files {
		if f.Pos() <= pos && pos < f.End() {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Pos() <= pos && pos < fn.End() {
					return fn
				}
			}
		}
	}
	return nil
}
