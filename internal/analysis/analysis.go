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
	// Suppress is the directive kind (e.g. "nondeterministic") that
	// suppresses this analyzer's diagnostics when placed on or directly
	// above the offending line. Empty means no line-level escape hatch.
	Suppress string
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

// Reportf records a diagnostic at pos. Diagnostics suppressed by the
// analyzer's escape-hatch directive are dropped by the driver.
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

// Directive kinds understood by the suite. See the package documentation
// for semantics.
const (
	DirHotpath          = "hotpath"
	DirNondeterministic = "nondeterministic"
	DirAllocOK          = "allocok"
	DirNoSnap           = "nosnap"
	DirNonatomic        = "nonatomic"
)

// directiveReasonRequired says whether a directive kind must carry a
// free-text reason. Suppressions always do; hotpath is an annotation, not
// an excuse.
var directiveReasonRequired = map[string]bool{
	DirHotpath:          false,
	DirNondeterministic: true,
	DirAllocOK:          true,
	DirNoSnap:           true,
	DirNonatomic:        true,
}

// directive is one parsed //peachstar: comment.
type directive struct {
	kind   string
	reason string
	pos    token.Pos
	line   int // line of the comment itself
}

// directiveIndex holds every directive in a package, keyed by file line for
// suppression lookups.
type directiveIndex struct {
	fset *token.FileSet
	// byFileLine maps filename -> line -> directives on that line.
	byFileLine map[string]map[int][]directive
	errs       []Diagnostic
}

const directivePrefix = "peachstar:"

// parseDirectives scans every comment in the files for //peachstar:
// directives, recording malformed ones as diagnostics so a typo can never
// silently disable a check.
func parseDirectives(fset *token.FileSet, files []*ast.File) *directiveIndex {
	idx := &directiveIndex{fset: fset, byFileLine: map[string]map[int][]directive{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//"+directivePrefix)
				if !ok {
					continue
				}
				kind, reason, _ := strings.Cut(strings.TrimSpace(text), " ")
				reason = strings.TrimSpace(reason)
				need, known := directiveReasonRequired[kind]
				switch {
				case !known:
					idx.errs = append(idx.errs, Diagnostic{c.Pos(), fmt.Sprintf(
						"unknown directive //peachstar:%s (known: hotpath, nondeterministic, allocok, nosnap, nonatomic)", kind)})
					continue
				case need && reason == "":
					idx.errs = append(idx.errs, Diagnostic{c.Pos(), fmt.Sprintf(
						"//peachstar:%s requires a reason", kind)})
					continue
				}
				pos := fset.Position(c.Pos())
				lines := idx.byFileLine[pos.Filename]
				if lines == nil {
					lines = map[int][]directive{}
					idx.byFileLine[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], directive{kind, reason, c.Pos(), pos.Line})
			}
		}
	}
	return idx
}

// at reports whether a directive of the given kind sits on line or the line
// above it in pos's file.
func (idx *directiveIndex) at(kind string, pos token.Pos) bool {
	p := idx.fset.Position(pos)
	lines := idx.byFileLine[p.Filename]
	for _, d := range lines[p.Line] {
		if d.kind == kind {
			return true
		}
	}
	for _, d := range lines[p.Line-1] {
		if d.kind == kind {
			return true
		}
	}
	return false
}

// FuncHasDirective reports whether fn's doc comment carries the directive
// kind (e.g. //peachstar:hotpath marking a function for hotalloc).
func (p *Pass) FuncHasDirective(fn *ast.FuncDecl, kind string) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.HasPrefix(c.Text, "//"+directivePrefix+kind) {
			return true
		}
	}
	return false
}

// FieldHasDirective reports whether a struct field's doc or trailing line
// comment carries the directive kind (used by snapfields for nosnap).
func (p *Pass) FieldHasDirective(field *ast.Field, kind string) bool {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, "//"+directivePrefix+kind) {
				return true
			}
		}
	}
	return false
}

// Suppressed reports whether the pass's escape-hatch directive covers pos,
// either on the same line, the line above, or on the doc comment of the
// enclosing function declaration.
func (p *Pass) Suppressed(pos token.Pos) bool {
	kind := p.Analyzer.Suppress
	if kind == "" {
		return false
	}
	if p.dirs.at(kind, pos) {
		return true
	}
	for _, f := range p.Files {
		if f.Pos() <= pos && pos < f.End() {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if ok && fn.Pos() <= pos && pos < fn.End() {
					return p.FuncHasDirective(fn, kind)
				}
			}
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

// receiverBaseType returns the named base type of a method receiver
// expression (stripping pointers and generics), or "".
func receiverBaseType(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if ix, ok := t.(*ast.IndexExpr); ok {
		t = ix.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
