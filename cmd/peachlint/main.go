// Command peachlint is the multichecker for the repository's two
// project-specific analyzers (detsource and rnggate — see
// internal/analysis), the `make lint` entry point:
//
//	peachlint ./...
//
// loads the matched packages via `go list -export` (type-checking against
// the build cache's export data, fully offline), runs every analyzer, prints
// findings as file:line:col: analyzer: message, and exits 1 if there are
// any.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: peachlint [packages]\n\nAnalyzers:\n")
		for _, a := range analysis.Analyzers() {
			fmt.Fprintf(os.Stderr, "  %-10s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "peachlint: %v\n", err)
		os.Exit(1)
	}
	analyzers := analysis.Analyzers()
	total := 0
	for _, pkg := range pkgs {
		for _, f := range analysis.RunPackage(pkg, analyzers) {
			fmt.Println(f)
			total++
		}
	}
	if total > 0 {
		fmt.Fprintf(os.Stderr, "peachlint: %d finding(s)\n", total)
		os.Exit(1)
	}
}
