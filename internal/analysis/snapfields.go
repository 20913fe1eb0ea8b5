package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// checkpointPackage hosts the Writer/Reader codec types that identify a
// Snapshot/Restore method pair.
const checkpointPackage = "repro/internal/checkpoint"

// Snapfields enforces complete checkpoint-codec coverage. A type's codec is
// either one method returning []checkpoint.Field (the field-list form: each
// listed field is both halves at once) or a hand-written
// Snapshot(*checkpoint.Writer)/Restore(*checkpoint.Reader) pair (any of the
// repo's naming conventions: Snapshot/Restore, SnapshotState/RestoreState,
// snapshot/restore). Every stored field must be referenced by the list, or
// by both sides of the pair, or carry //peachstar:nosnap <reason>. A field
// added to a checkpointed struct but not to its codec is exactly the silent
// warm-restart drift PR 9's runtime goldens can only catch after the fact;
// snapfields makes it a build failure. sync.Mutex and sync.RWMutex fields
// are exempt — locks are never checkpointed.
var Snapfields = &Analyzer{
	Name: "snapfields",
	Doc:  "every field of a checkpointed type must be covered by its field list or by both Snapshot and Restore, or marked //peachstar:nosnap",
	Run:  runSnapfields,
}

// codecPair is one type's snapshot/restore method pair; a field-list method
// fills both halves.
type codecPair struct {
	typeName string
	snapshot *ast.FuncDecl
	restore  *ast.FuncDecl
}

func runSnapfields(pass *Pass) {
	pairs := map[string]*codecPair{}
	// methodsByType lets the reference walk follow same-receiver helper
	// calls (e.g. Snapshot -> snapStreams).
	methodsByType := map[string]map[string]*ast.FuncDecl{}
	var funcs []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			funcs = append(funcs, fn)
			recv := receiverBaseType(fn)
			if recv == "" {
				continue
			}
			if methodsByType[recv] == nil {
				methodsByType[recv] = map[string]*ast.FuncDecl{}
			}
			methodsByType[recv][fn.Name.Name] = fn
			role := codecRole(pass, fn)
			if role == "" {
				continue
			}
			p := pairs[recv]
			if p == nil {
				p = &codecPair{typeName: recv}
				pairs[recv] = p
			}
			if role != "restore" {
				p.snapshot = fn
			}
			if role != "snapshot" {
				p.restore = fn
			}
		}
	}

	names := make([]string, 0, len(pairs))
	for n := range pairs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		p := pairs[name]
		if p.snapshot == nil || p.restore == nil {
			// A lone half is legal (e.g. a type that only serialises);
			// drift enforcement needs both sides.
			continue
		}
		checkCodecPair(pass, p, methodsByType[name])
	}
}

// codecRole classifies fn as the "snapshot" or "restore" half of a
// checkpoint codec, as "fields" (both halves: it returns
// []checkpoint.Field), or "" if it is none: for a half the name must match
// the convention and a parameter must be *checkpoint.Writer (snapshot) or
// *checkpoint.Reader (restore).
func codecRole(pass *Pass, fn *ast.FuncDecl) string {
	if res := fn.Type.Results; res != nil && len(res.List) == 1 {
		if sl, ok := pass.TypesInfo.Types[res.List[0].Type].Type.(*types.Slice); ok && isCheckpointType(sl.Elem(), "Field") {
			return "fields"
		}
	}
	base := strings.TrimSuffix(strings.ToLower(fn.Name.Name), "state")
	switch base {
	case "snapshot":
		if hasParamOfType(pass, fn, "Writer") {
			return "snapshot"
		}
	case "restore":
		if hasParamOfType(pass, fn, "Reader") {
			return "restore"
		}
	}
	return ""
}

// hasParamOfType reports whether fn has a parameter of type
// *checkpoint.<name>.
func hasParamOfType(pass *Pass, fn *ast.FuncDecl, name string) bool {
	if fn.Type.Params == nil {
		return false
	}
	for _, field := range fn.Type.Params.List {
		tv, ok := pass.TypesInfo.Types[field.Type]
		if !ok {
			continue
		}
		if ptr, ok := tv.Type.(*types.Pointer); ok && isCheckpointType(ptr.Elem(), name) {
			return true
		}
	}
	return false
}

// isCheckpointType reports whether t is the named type checkpoint.<name>.
func isCheckpointType(t types.Type, name string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == checkpointPackage
}

func checkCodecPair(pass *Pass, p *codecPair, methods map[string]*ast.FuncDecl) {
	obj := pass.Pkg.Scope().Lookup(p.typeName)
	if obj == nil {
		return
	}
	named, ok := obj.Type().(*types.Named)
	if !ok {
		return
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return
	}
	fieldSet := map[*types.Var]bool{}
	for i := 0; i < st.NumFields(); i++ {
		fieldSet[st.Field(i)] = true
	}
	snapRefs := referencedFields(pass, p.snapshot, methods, fieldSet)
	restRefs := referencedFields(pass, p.restore, methods, fieldSet)

	astFields := structASTFields(pass, p.typeName)
	for i := 0; i < st.NumFields(); i++ {
		fv := st.Field(i)
		if snapRefs[fv] && restRefs[fv] {
			continue
		}
		if isMutexType(fv.Type()) {
			continue
		}
		af := astFields[fv.Name()]
		if af != nil && pass.FieldHasDirective(af, DirNoSnap) {
			continue
		}
		var missing string
		switch {
		case p.snapshot == p.restore:
			missing = p.snapshot.Name.Name
		case !snapRefs[fv] && !restRefs[fv]:
			missing = p.snapshot.Name.Name + " or " + p.restore.Name.Name
		case !snapRefs[fv]:
			missing = p.snapshot.Name.Name
		default:
			missing = p.restore.Name.Name
		}
		pos := fv.Pos()
		if af != nil {
			pos = af.Pos()
		}
		pass.Reportf(pos, "field %s.%s is not covered by %s: a warm restart would silently drop it (cover it in both, or mark //peachstar:nosnap <reason>)", p.typeName, fv.Name(), missing)
	}
}

// referencedFields walks fn and every same-receiver method it transitively
// calls or takes as a method value (same package), collecting which of the struct's fields are
// referenced — by selector, by composite-literal key, or wholesale via a
// positional composite literal covering every field.
func referencedFields(pass *Pass, fn *ast.FuncDecl, methods map[string]*ast.FuncDecl, fieldSet map[*types.Var]bool) map[*types.Var]bool {
	refs := map[*types.Var]bool{}
	seen := map[*ast.FuncDecl]bool{}
	var walk func(fn *ast.FuncDecl)
	walk = func(fn *ast.FuncDecl) {
		if fn == nil || seen[fn] || fn.Body == nil {
			return
		}
		seen[fn] = true
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if v, ok := usesOf(pass.TypesInfo, n).(*types.Var); ok && fieldSet[v] {
					refs[v] = true
				}
			case *ast.CompositeLit:
				// A positional, fully-populated literal covers all fields.
				if len(n.Elts) > 0 {
					if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed && len(n.Elts) == len(fieldSet) {
						if tv, ok := pass.TypesInfo.Types[n]; ok {
							if sameStruct(tv.Type, fieldSet) {
								for fv := range fieldSet {
									refs[fv] = true
								}
							}
						}
					}
				}
			case *ast.SelectorExpr:
				// A helper called, or handed over as a method value
				// (checkpoint.Func(s.snapshotX, s.restoreX)).
				if m, ok := methods[n.Sel.Name]; ok {
					walk(m)
				}
			}
			return true
		})
	}
	walk(fn)
	return refs
}

// sameStruct reports whether t's underlying struct is the one described by
// fieldSet.
func sameStruct(t types.Type, fieldSet map[*types.Var]bool) bool {
	st, ok := t.Underlying().(*types.Struct)
	if !ok || st.NumFields() != len(fieldSet) {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if !fieldSet[st.Field(i)] {
			return false
		}
	}
	return true
}

// structASTFields returns the AST fields of the named struct type, keyed by
// field name (embedded fields keyed by their type name), for directive
// lookups and positions.
func structASTFields(pass *Pass, typeName string) map[string]*ast.Field {
	out := map[string]*ast.Field{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || ts.Name.Name != typeName {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, field := range st.Fields.List {
					if len(field.Names) == 0 {
						out[embeddedName(field.Type)] = field
						continue
					}
					for _, name := range field.Names {
						out[name.Name] = field
					}
				}
			}
		}
	}
	return out
}

func embeddedName(t ast.Expr) string {
	switch t := t.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return embeddedName(t.X)
	case *ast.SelectorExpr:
		return t.Sel.Name
	}
	return ""
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex — never
// checkpointed, exempt without a directive.
func isMutexType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}
