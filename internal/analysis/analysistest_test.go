package analysis

// This file is the suite's analysistest-style harness: each testdata
// package under testdata/src/ is loaded with a fake import path (several
// analyzers decide behaviour from the package path), run through exactly
// the analyzer under test, and the findings are checked against the
// `// want `+"`regexp`"+`` comments embedded in the sources — every want
// must be matched by a finding on its line, and every finding must be
// claimed by a want, so both false negatives and false positives fail the
// test.

import (
	"fmt"
	"regexp"
	"strings"
	"testing"
)

// wantArgRe extracts the backtick-quoted expectations of a // want comment.
var wantArgRe = regexp.MustCompile("`([^`]*)`")

func runTestdata(t *testing.T, dir, importPath string, analyzers []*Analyzer) {
	t.Helper()
	pkg, err := LoadDir("../..", "testdata/src/"+dir, importPath)
	if err != nil {
		t.Fatalf("loading testdata %s: %v", dir, err)
	}
	findings := RunPackage(pkg, analyzers)

	type want struct {
		file string
		line int
		re   *regexp.Regexp
		hit  bool
	}
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				args := wantArgRe.FindAllStringSubmatch(c.Text[idx:], -1)
				if len(args) == 0 {
					t.Fatalf("%s:%d: want comment without a backtick-quoted regexp", pos.Filename, pos.Line)
				}
				for _, m := range args {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					wants = append(wants, &want{pos.Filename, pos.Line, re, false})
				}
			}
		}
	}

	for _, f := range findings {
		text := fmt.Sprintf("%s: %s", f.Analyzer, f.Message)
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == f.Pos.Filename && w.line == f.Pos.Line && w.re.MatchString(text) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no finding matched want %q", w.file, w.line, w.re)
		}
	}
}

func TestDetsource(t *testing.T) {
	runTestdata(t, "detsource", "repro/internal/core", []*Analyzer{NewDetsource(DeterministicPackages)})
}

// TestDetsourceScopedToDeterministicPackages reruns the violation-seeded
// detsource sources under an import path outside the deterministic set:
// everything must come back clean, because detsource's contract is scoped,
// not repo-wide.
func TestDetsourceScopedToDeterministicPackages(t *testing.T) {
	pkg, err := LoadDir("../..", "testdata/src/detsource", "repro/internal/report")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range RunPackage(pkg, []*Analyzer{NewDetsource(DeterministicPackages)}) {
		t.Errorf("finding outside deterministic packages: %s", f)
	}
}

func TestRnggate(t *testing.T) {
	runTestdata(t, "rnggate", "repro/internal/coverage", []*Analyzer{NewRnggate(SeedingPackages)})
}

// TestRnggateSeedingLayer checks the other side of the gate: the same
// stream-minting calls are legal in a designated seeding package.
func TestRnggateSeedingLayer(t *testing.T) {
	runTestdata(t, "rnggate_seed", "repro/cmd/seedtool", []*Analyzer{NewRnggate(SeedingPackages)})
}

// TestDirectiveErrors checks that malformed //peachstar: directives are
// findings in their own right — a typo can never silently disable a check,
// and an annotation of a retired kind (hotpath) is reported, not ignored.
func TestDirectiveErrors(t *testing.T) {
	pkg, err := LoadDir("../..", "testdata/src/directive", "repro/internal/dirdemo")
	if err != nil {
		t.Fatal(err)
	}
	findings := RunPackage(pkg, nil)
	if len(findings) != 2 {
		t.Fatalf("got %d findings, want 2: %v", len(findings), findings)
	}
	for _, f := range findings {
		if f.Analyzer != "directive" {
			t.Errorf("finding attributed to %q, want \"directive\"", f.Analyzer)
		}
	}
	if !strings.Contains(findings[0].Message, "unknown directive //peachstar:hotpath (known: nondeterministic)") {
		t.Errorf("first finding should flag the unknown kind, got: %s", findings[0].Message)
	}
	if !strings.Contains(findings[1].Message, "//peachstar:nondeterministic requires a reason") {
		t.Errorf("second finding should flag the missing reason, got: %s", findings[1].Message)
	}
}

// TestLintSelfClean self-applies the full suite to the whole module: the
// repository must stay peachlint-clean, and because this runs under plain
// `go test ./...`, deliberately introducing any violation class turns the
// test (and therefore make ci) red even before make lint runs.
func TestLintSelfClean(t *testing.T) {
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	analyzers := Analyzers()
	for _, pkg := range pkgs {
		for _, f := range RunPackage(pkg, analyzers) {
			t.Errorf("%s", f)
		}
	}
}
