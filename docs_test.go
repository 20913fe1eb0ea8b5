package repro

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/fleetnet"
)

// The documentation gate. It runs inside plain `go test ./...` and checks
// what a reader relies on: every library package says what it is, the
// architecture document keeps the sections other docs point at, and no
// document or source comment cites a file, command directory or make
// target that does not exist. cmd/bench is the benchmark's own tree and is
// not read.

// repoFiles lists every file of the working tree by slash-separated path
// relative to the repository root, skipping VCS metadata, analyzer
// fixtures and the directories .gitignore declares as build output.
func repoFiles(t *testing.T) (files []string, generated []string) {
	t.Helper()
	if f, err := os.Open(".gitignore"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if line := strings.TrimSpace(sc.Text()); strings.HasSuffix(line, "/") {
				generated = append(generated, line)
			}
		}
		f.Close()
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		if d.IsDir() {
			if path == ".git" || d.Name() == "testdata" || isUnder(path+"/", generated) {
				return filepath.SkipDir
			}
			return nil
		}
		files = append(files, path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files, generated
}

func isUnder(path string, dirs []string) bool {
	for _, d := range dirs {
		if strings.HasPrefix(path, d) {
			return true
		}
	}
	return false
}

// TestDocsPackageComments: every non-main package carries a
// "// Package x ..." comment on one of its files. Packages are discovered
// from the tree, so a new one cannot be forgotten.
func TestDocsPackageComments(t *testing.T) {
	files, _ := repoFiles(t)
	documented := map[string]bool{} // directory → has a package comment
	name := map[string]string{}     // directory → package name
	fset := token.NewFileSet()
	for _, path := range files {
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.PackageClauseOnly|parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		if f.Name.Name == "main" {
			continue
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		name[dir] = f.Name.Name
		if f.Doc != nil && strings.HasPrefix(f.Doc.Text(), "Package "+f.Name.Name+" ") {
			documented[dir] = true
		}
	}
	if len(name) == 0 {
		t.Fatal("found no library packages; the walk is broken")
	}
	for dir, pkg := range name {
		if !documented[dir] {
			t.Errorf("package %s has no '// Package %s ...' doc comment", dir, pkg)
		}
	}
}

// TestDocsArchitectureSections: the sections of ARCHITECTURE.md that the
// README, the Makefile and source comments refer readers to.
func TestDocsArchitectureSections(t *testing.T) {
	arch, err := os.ReadFile("ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, section := range []string{
		"Scheduler & distillation",
		"Session fuzzing",
		"Durable checkpoints",
		"Static analysis",
	} {
		if !strings.Contains(string(arch), section) {
			t.Errorf("ARCHITECTURE.md lost the %q section", section)
		}
	}
}

// TestDocsProtocolVersion: wherever ARCHITECTURE.md states the fleetnet
// protocol version ("protocol version N", "fleetnet protocol N", "min = max
// = N"), N is the version the build speaks.
func TestDocsProtocolVersion(t *testing.T) {
	checkStatedVersion(t, `(?:protocol version|fleetnet protocol|min = max =)\s+(\d+)`, fleetnet.ProtocolVersion)
}

// TestDocsCheckpointVersion: wherever ARCHITECTURE.md states the checkpoint
// format version ("checkpoint version N"), N is the version the build
// writes and restores.
func TestDocsCheckpointVersion(t *testing.T) {
	checkStatedVersion(t, `checkpoint version\s+(\d+)`, checkpoint.Version)
}

// checkStatedVersion fails unless ARCHITECTURE.md matches pattern at least
// once and every match's number is want.
func checkStatedVersion(t *testing.T, pattern string, want int) {
	t.Helper()
	arch, err := os.ReadFile("ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	stated := regexp.MustCompile(pattern).FindAllStringSubmatch(string(arch), -1)
	if len(stated) == 0 {
		t.Fatalf("ARCHITECTURE.md no longer states the version (%s)", pattern)
	}
	for _, m := range stated {
		if n, _ := strconv.Atoi(m[1]); n != want {
			t.Errorf("ARCHITECTURE.md says %q, the build has version %d", m[0], want)
		}
	}
}

var (
	// A *.md or *.json file name, possibly with a directory or a glob star.
	citedFile = regexp.MustCompile(`[A-Za-z0-9_.*][A-Za-z0-9_./*-]*\.(?:md|json)\b`)
	// A directory under cmd/ (cmd/go is the Go toolchain's, not ours).
	citedCmd = regexp.MustCompile(`\bcmd/[a-z0-9_]+`)
	// A make invocation written as code: behind a backtick or, in the
	// markdown documents, leading a line of a fenced block. Prose such as
	// "make sure" is neither.
	citedMake     = regexp.MustCompile("`make ([a-z][a-z0-9-]*)")
	citedMakeLine = regexp.MustCompile(`(?m)^(?:\$ )?make ([a-z][a-z0-9-]*)`)
	// Makefile rule heads.
	makeTarget = regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`)
)

// TestDocsCitationsResolve: README.md, ARCHITECTURE.md and every Go
// comment may only name *.md / *.json files, cmd/ directories and make
// targets that exist, so deleting or renaming one fails the build until
// the prose follows.
func TestDocsCitationsResolve(t *testing.T) {
	files, generated := repoFiles(t)
	exists := map[string]bool{}
	byBase := map[string]bool{}
	for _, f := range files {
		exists[f] = true
		byBase[filepath.Base(f)] = true
	}
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeTarget.FindAllStringSubmatch(string(mk), -1) {
		targets[m[1]] = true
	}

	fileResolves := func(cite, from string) bool {
		if isUnder(cite, generated) {
			return true // a build output: absent from a clean tree by design
		}
		if strings.Contains(cite, "*") {
			for f := range exists {
				if ok, _ := filepath.Match(cite, f); ok {
					return true
				}
			}
			return false
		}
		if exists[cite] || exists[filepath.ToSlash(filepath.Join(filepath.Dir(from), cite))] {
			return true
		}
		return !strings.Contains(cite, "/") && byBase[cite]
	}
	check := func(from, where, text string, makes ...*regexp.Regexp) {
		for _, cite := range citedFile.FindAllString(text, -1) {
			if !fileResolves(strings.TrimPrefix(cite, "./"), from) {
				t.Errorf("%s cites %s, which does not exist", where, cite)
			}
		}
		for _, cite := range citedCmd.FindAllString(text, -1) {
			if fi, err := os.Stat(cite); cite != "cmd/go" && (err != nil || !fi.IsDir()) {
				t.Errorf("%s cites %s, which is not a directory", where, cite)
			}
		}
		for _, re := range makes {
			for _, m := range re.FindAllStringSubmatch(text, -1) {
				if !targets[m[1]] {
					t.Errorf("%s cites `make %s`, which the Makefile does not define", where, m[1])
				}
			}
		}
	}

	for _, doc := range []string{"README.md", "ARCHITECTURE.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		check(doc, doc, string(text), citedMake, citedMakeLine)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		if !strings.HasSuffix(path, ".go") || strings.HasPrefix(path, "cmd/bench/") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, cg := range f.Comments {
			check(path, fset.Position(cg.Pos()).String(), cg.Text(), citedMake)
		}
	}
}

// The names that exist only for cmd/bench, which the benchmark freezes:
// the sandbox package, fleetnet's hub/leaf constructors (compat.go) and
// peachstar's SyncServer alias. Each package's shim names, by package.
var benchShims = map[string][]string{
	"repro/internal/fleetnet": {"Hub", "Leaf", "HubConfig", "LeafConfig", "NewHub", "NewLeaf"},
	"repro/peachstar":         {"SyncServer"},
}

// TestDocsShimsOnlyForBench: no Go file outside cmd/bench/ imports
// internal/sandbox or uses a compatibility name of fleetnet or peachstar
// (benchShims) — qualified from another package, or unqualified inside
// the package itself — apart from the shim's own definition.
func TestDocsShimsOnlyForBench(t *testing.T) {
	files, _ := repoFiles(t)
	fset := token.NewFileSet()
	for _, path := range files {
		if !strings.HasSuffix(path, ".go") || strings.HasPrefix(path, "cmd/bench/") || path == "internal/fleetnet/compat.go" {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		shim := map[string]map[string]bool{} // local package name → shim names
		addShims := func(local, pkg string) {
			shim[local] = map[string]bool{}
			for _, n := range benchShims[pkg] {
				shim[local][n] = true
			}
		}
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			if p == "repro/internal/sandbox" {
				t.Errorf("%s imports %s, which exists only for cmd/bench", path, p)
			}
			if benchShims[p] != nil {
				local := p[strings.LastIndex(p, "/")+1:]
				if im.Name != nil {
					local = im.Name.Name
				}
				addShims(local, p)
			}
		}
		// Inside the shim's own package the names appear unqualified.
		for p := range benchShims {
			if dir := strings.TrimPrefix(p, "repro/"); filepath.ToSlash(filepath.Dir(path)) == dir && f.Name.Name == filepath.Base(dir) {
				addShims("", p)
			}
		}
		exempt := map[*ast.Ident]bool{} // selectors, field names and keys, and the shim declarations
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				exempt[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok && shim[x.Name][n.Sel.Name] {
					t.Errorf("%s: %s.%s exists only for cmd/bench", fset.Position(n.Pos()), x.Name, n.Sel.Name)
				}
			case *ast.Field:
				for _, id := range n.Names {
					exempt[id] = true
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					exempt[id] = true
				}
			case *ast.TypeSpec:
				if n.Assign.IsValid() && shim[""][n.Name.Name] {
					exempt[n.Name] = true // the alias's own definition
				}
			case *ast.Ident:
				if shim[""][n.Name] && !exempt[n] {
					t.Errorf("%s: %s exists only for cmd/bench", fset.Position(n.Pos()), n.Name)
				}
			}
			return true
		})
	}
}
