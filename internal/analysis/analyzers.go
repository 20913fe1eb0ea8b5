package analysis

import "strings"

// DeterministicPackages is the default set of import paths whose code must
// be bit-for-bit deterministic: everything between the RNG and the emitted
// frames. A trailing "/..." entry covers a subtree (the in-process protocol
// targets). executor is in it for the in-process runner; its process
// backend reads the wall clock through one directive-marked helper that
// only sets spawn and watchdog deadlines. fleetnet (network timing),
// backoff (wall-clock delays) and the session-orchestration layer are
// deliberately outside the set — their nondeterminism is confined by the
// merge-window design, not absent.
var DeterministicPackages = []string{
	"repro/internal/core",
	"repro/internal/mutator",
	"repro/internal/datamodel",
	"repro/internal/session",
	"repro/internal/coverage",
	"repro/internal/corpus",
	"repro/internal/crash",
	"repro/internal/checkpoint",
	"repro/internal/mem",
	"repro/internal/rng",
	"repro/internal/executor",
	"repro/internal/pit",
	"repro/internal/targets/...",
}

// SeedingPackages are the layers allowed to mint RNG streams with rng.New
// or rng.Split: the campaign roots, the engine construction path, and the
// process-supervision backoff (whose jitter stream is seeded from the
// campaign seed). Everything else must receive a *rng.RNG handle.
var SeedingPackages = []string{
	"repro/internal/rng",
	"repro/internal/core",
	"repro/internal/backoff",
	"repro/internal/bench",
	"repro/peachstar",
	"repro/cmd/...",
	"repro/examples/...",
}

// matchPath reports whether path is covered by the pattern set ("/..."
// suffix matches the subtree).
func matchPath(patterns []string, path string) bool {
	for _, p := range patterns {
		if sub, ok := strings.CutSuffix(p, "/..."); ok {
			if path == sub || strings.HasPrefix(path, sub+"/") {
				return true
			}
		} else if path == p {
			return true
		}
	}
	return false
}

// Analyzers returns the full peachlint suite configured with the
// repository's default package sets.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NewDetsource(DeterministicPackages),
		NewRnggate(SeedingPackages),
	}
}
