package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NewDetsource builds the detsource analyzer over the given set of
// deterministic package patterns. In those packages it forbids the three
// stdlib nondeterminism sources that can silently perturb a campaign —
// wall-clock reads (time.Now/Since/Until), the rand packages, and map
// iteration whose order can reach output — each escapable only with an
// explicit //peachstar:nondeterministic <reason>.
func NewDetsource(deterministic []string) *Analyzer {
	a := &Analyzer{
		Name: "detsource",
		Doc:  "forbid wall-clock, stdlib rand, and order-dependent map iteration in deterministic packages",
	}
	a.Run = func(pass *Pass) {
		if !matchPath(deterministic, pass.Pkg.Path()) {
			return
		}
		checkBannedImports(pass, map[string]string{
			"math/rand":    "deterministic packages draw through internal/rng stream handles",
			"math/rand/v2": "deterministic packages draw through internal/rng stream handles",
			"crypto/rand":  "system entropy can never reach a reproducible campaign",
		})
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if path, name := pkgFunc(pass.TypesInfo, n); path == "time" {
						switch name {
						case "Now", "Since", "Until":
							pass.Reportf(n.Pos(), "time.%s in deterministic package %s: the wall clock must not reach fuzzing state (use //peachstar:nondeterministic <reason> only if it provably cannot)", name, pass.Pkg.Path())
						}
					}
				case *ast.RangeStmt:
					checkMapRange(pass, f, n)
				}
				return true
			})
		}
	}
	return a
}

// checkBannedImports reports any import of the given paths, with a
// per-path explanation.
func checkBannedImports(pass *Pass, banned map[string]string) {
	for _, f := range pass.Files {
		for _, im := range f.Imports {
			path := im.Path.Value
			path = path[1 : len(path)-1]
			if why, ok := banned[path]; ok {
				pass.Reportf(im.Pos(), "import of %s: %s", path, why)
			}
		}
	}
}

// checkMapRange flags `for ... range m` over a map whose body can leak the
// iteration order into output. Recognised order-insensitive shapes are
// clean without a directive:
//
//   - pure commutative accumulation (x++, x += e, x |= e, ...);
//   - keyed stores into another map (m2[k] = v) or into a slice/array
//     indexed by the loop key (out[k] = v);
//   - delete(m2, k);
//   - the max/min tournament (if v > best { best = v; ... });
//   - collecting keys into a slice that is sorted later in the same
//     function (sort.* / slices.Sort* with the slice as first argument).
//
// Everything else — appends that stay unsorted, calls, sends, returns,
// writes through unkeyed destinations — is assumed to emit in map order.
func checkMapRange(pass *Pass, file *ast.File, rng *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	t := tv.Type
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	// A range that binds neither key nor value (`for range m`, or with
	// blanks) runs an identical body once per entry: with nothing to
	// distinguish the iterations, their order is unobservable.
	if blankExpr(rng.Key) && blankExpr(rng.Value) {
		return
	}
	// Key/value loop variables, for keyed-store recognition.
	loopVars := map[types.Object]bool{}
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if o := pass.TypesInfo.Defs[id]; o != nil {
				loopVars[o] = true
			} else if o := pass.TypesInfo.Uses[id]; o != nil {
				loopVars[o] = true
			}
		}
	}
	c := &mapRangeChecker{pass: pass, loopVars: loopVars}
	for _, s := range rng.Body.List {
		c.stmt(s)
		if c.bad != nil {
			break
		}
	}
	if c.bad == nil {
		// Pure-collect loops are clean only if the collected slice is
		// sorted afterwards in the same function.
		for obj := range c.collected {
			if !sortedAfter(pass, file, rng, obj) {
				pass.Reportf(rng.Pos(), "map iteration order reaches output: %s collects into %q which is never sorted in this function", rangeDesc(rng), obj.Name())
				return
			}
		}
		return
	}
	pass.Reportf(rng.Pos(), "map iteration order reaches output: %s %s (sort the keys first, restructure, or justify with //peachstar:nondeterministic <reason>)", rangeDesc(rng), c.why)
}

// blankExpr reports whether a range clause position is unbound: absent or
// the blank identifier.
func blankExpr(e ast.Expr) bool {
	if e == nil {
		return true
	}
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

func rangeDesc(rng *ast.RangeStmt) string {
	if id, ok := rng.X.(*ast.Ident); ok {
		return "range over map " + id.Name
	}
	if sel, ok := rng.X.(*ast.SelectorExpr); ok {
		return "range over map ." + sel.Sel.Name
	}
	return "range over map"
}

// mapRangeChecker walks a map-range body classifying statements as
// order-insensitive or not. bad holds the first offending node.
type mapRangeChecker struct {
	pass     *Pass
	loopVars map[types.Object]bool
	// collected maps slice variables that receive `append` collects and
	// must be sorted after the loop.
	collected map[types.Object]bool
	bad       ast.Node
	why       string
}

func (c *mapRangeChecker) fail(n ast.Node, why string) {
	if c.bad == nil {
		c.bad, c.why = n, why
	}
}

func (c *mapRangeChecker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.IncDecStmt:
		// x++ / x-- is commutative accumulation.
	case *ast.AssignStmt:
		c.assign(s)
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			c.fail(s, "has an order-sensitive statement")
			return
		}
		if isBuiltinCall(c.pass.TypesInfo, call, "delete") {
			return // builtin delete: keyed, order-insensitive
		}
		c.fail(s, "calls a function inside the loop")
	case *ast.IfStmt:
		c.ifStmt(s)
	case *ast.BlockStmt:
		for _, inner := range s.List {
			c.stmt(inner)
		}
	case *ast.BranchStmt:
		if s.Tok != token.CONTINUE {
			c.fail(s, "transfers control out of the loop (order-dependent exit)")
		}
	case *ast.DeclStmt:
		// Local declarations don't leak order by themselves; uses do.
	default:
		c.fail(s, "has an order-sensitive statement")
	}
}

// assign classifies an assignment inside the loop body.
func (c *mapRangeChecker) assign(s *ast.AssignStmt) {
	switch s.Tok {
	case token.ADD_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN,
		token.XOR_ASSIGN, token.MUL_ASSIGN, token.AND_NOT_ASSIGN:
		// Commutative/associative accumulation: order-insensitive.
		return
	case token.DEFINE:
		// := declares fresh loop-local variables; order can only leak
		// through a later use of them, which the other checks see.
		return
	case token.ASSIGN:
		// s = append(s, ...) is a collect; clean iff sorted later.
		if len(s.Lhs) == 1 && len(s.Rhs) == 1 {
			if call, ok := s.Rhs[0].(*ast.CallExpr); ok {
				if isBuiltinCall(c.pass.TypesInfo, call, "append") {
					if lhs, ok := s.Lhs[0].(*ast.Ident); ok {
						if obj := usesOf(c.pass.TypesInfo, lhs); obj != nil {
							if c.collected == nil {
								c.collected = map[types.Object]bool{}
							}
							c.collected[obj] = true
							return
						}
					}
					c.fail(s, "appends in map order")
					return
				}
			}
			// Keyed store: m2[expr] = v or out[k] = v with k the loop key.
			if ix, ok := s.Lhs[0].(*ast.IndexExpr); ok && s.Tok == token.ASSIGN {
				if c.keyedStore(ix) {
					return
				}
				c.fail(s, "writes through an index that is not keyed by the loop variable")
				return
			}
		}
		c.fail(s, "assigns in map order")
	default:
		// -=, /=, %=, shifts: order of float/int division etc. can matter;
		// be conservative for the exotic ones except -= on integers, which
		// is commutative in the additive-inverse sense.
		if s.Tok == token.SUB_ASSIGN {
			return
		}
		c.fail(s, "assigns with an order-sensitive operator")
	}
}

// keyedStore reports whether ix is a per-key destination: a map index
// (unique keys make order irrelevant) or a slice/array indexed by a loop
// variable.
func (c *mapRangeChecker) keyedStore(ix *ast.IndexExpr) bool {
	if tv, ok := c.pass.TypesInfo.Types[ix.X]; ok {
		if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
			return true
		}
	}
	if id, ok := ix.Index.(*ast.Ident); ok {
		if obj := usesOf(c.pass.TypesInfo, id); obj != nil && c.loopVars[obj] {
			return true
		}
	}
	return false
}

// ifStmt allows condition-guarded accumulation, including the max/min
// tournament pattern (if v > best { best = v }), as long as the condition
// itself calls nothing.
func (c *mapRangeChecker) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		c.fail(s, "has an order-sensitive statement")
		return
	}
	if callsFunction(c.pass, s.Cond) {
		c.fail(s, "calls a function in a loop condition")
		return
	}
	condVars := exprVars(c.pass, s.Cond)
	for _, inner := range s.Body.List {
		if a, ok := inner.(*ast.AssignStmt); ok && a.Tok == token.ASSIGN && c.tournamentAssign(a, condVars) {
			continue
		}
		c.stmt(inner)
	}
	switch e := s.Else.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, inner := range e.List {
			c.stmt(inner)
		}
	case *ast.IfStmt:
		c.ifStmt(e)
	}
}

// tournamentAssign recognises `best = v` (and companions like `bestK = k`)
// under a comparison condition that mentions `best`: a commutative
// tournament as long as the comparison is strict or ties are impossible;
// peachlint accepts comparison-guarded assignment as the established
// max/min idiom.
func (c *mapRangeChecker) tournamentAssign(a *ast.AssignStmt, condVars map[types.Object]bool) bool {
	if len(a.Lhs) == 0 {
		return false
	}
	for _, lhs := range a.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return false
		}
		obj := usesOf(c.pass.TypesInfo, id)
		if obj == nil {
			return false
		}
		if condVars[obj] {
			return true // at least one assigned var is compared in the guard
		}
	}
	return false
}

// callsFunction reports whether the expression contains any call (len/cap
// of a value are allowed — they allocate nothing and read no order).
func callsFunction(pass *Pass, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok {
				if b, ok := usesOf(pass.TypesInfo, id).(*types.Builtin); ok {
					switch b.Name() {
					case "len", "cap":
						return true
					}
				}
			}
			found = true
			return false
		}
		return true
	})
	return found
}

// exprVars collects the variable objects mentioned in an expression.
func exprVars(pass *Pass, e ast.Expr) map[types.Object]bool {
	vars := map[types.Object]bool{}
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := usesOf(pass.TypesInfo, id).(*types.Var); ok {
				vars[v] = true
			}
		}
		return true
	})
	return vars
}

// sortedAfter reports whether obj (a slice collected inside the loop) is
// passed to a sort.* or slices.Sort* call after the loop, lexically within
// the enclosing function.
func sortedAfter(pass *Pass, file *ast.File, rng *ast.RangeStmt, obj types.Object) bool {
	fn := enclosingFunc([]*ast.File{file}, rng.Pos())
	if fn == nil {
		return false
	}
	sorted := false
	ast.Inspect(fn, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || sorted {
			return !sorted
		}
		path, name := pkgFunc(pass.TypesInfo, call)
		isSort := path == "sort" || (path == "slices" && len(name) >= 4 && name[:4] == "Sort")
		if !isSort {
			return true
		}
		for _, arg := range call.Args {
			base := arg
			if id, ok := base.(*ast.Ident); ok {
				if usesOf(pass.TypesInfo, id) == obj {
					sorted = true
					return false
				}
			}
		}
		return true
	})
	return sorted
}
