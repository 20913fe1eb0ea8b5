package analysis

import (
	"go/ast"
)

// rngPackage is the module's deterministic random source; the only streams
// a campaign may draw from are handles minted from it.
const rngPackage = "repro/internal/rng"

// NewRnggate builds the rnggate analyzer: all randomness must flow through
// internal/rng stream handles. Repo-wide it bans the stdlib rand packages
// outright, and it restricts stream *creation* (rng.New, rng.Split) to the
// designated seeding layers so the split-stream discipline — worker i draws
// from rng.Split(campaignSeed, i), nothing else — cannot be bypassed by a
// leaf package minting a private generator with its own seed.
func NewRnggate(seeding []string) *Analyzer {
	a := &Analyzer{
		Name: "rnggate",
		Doc:  "randomness must flow through internal/rng stream handles created at the seeding layers",
	}
	a.Run = func(pass *Pass) {
		path := pass.Pkg.Path()
		if path == rngPackage {
			return
		}
		checkBannedImports(pass, map[string]string{
			"math/rand":    "all randomness flows through internal/rng stream handles",
			"math/rand/v2": "all randomness flows through internal/rng stream handles",
			"crypto/rand":  "system entropy would make campaigns unreproducible; use internal/rng",
		})
		if matchPath(seeding, path) {
			return
		}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if p, name := pkgFunc(pass.TypesInfo, call); p == rngPackage {
					switch name {
					case "New", "Split":
						pass.Reportf(call.Pos(), "rng.%s outside a seeding layer: %s must receive a *rng.RNG handle from its caller instead of minting its own stream (split-stream discipline)", name, path)
					}
				}
				return true
			})
		}
	}
	return a
}
