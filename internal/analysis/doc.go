// Package analysis is peachlint: a static-analysis suite that enforces the
// engine's determinism invariants at compile time.
//
// Bit-for-bit campaign determinism and fixed RNG draw counts through
// internal/rng are guarded at runtime by golden fingerprints, but a
// nondeterminism source can pass every golden by luck: a map iteration
// whose order happens to match, a wall-clock read that happens not to
// change a decision. This package turns those contracts into build-time
// checks: `make lint` (and therefore `make check` / `make ci`) fails with
// a file:line diagnostic the moment a violation is written.
//
// The suite is two analyzers, mirroring the golang.org/x/tools/go/analysis
// API shape (Analyzer/Pass/Diagnostic) but implemented on the standard
// library's go/ast + go/types only, so the module keeps zero external
// dependencies and `go build ./...` works offline:
//
//   - detsource — in deterministic packages, forbids wall-clock reads
//     (time.Now/Since/Until), math/rand / crypto/rand imports, and map
//     `range` loops whose iteration order can reach output (appends, calls,
//     writes) without an intervening sort. Front-runs the
//     TestAdaptiveOffGolden / warm-restart fingerprint suites.
//   - rnggate   — all randomness must flow through internal/rng stream
//     handles: bans the stdlib rand packages repo-wide and restricts
//     rng.New / rng.Split (stream creation) to the designated seeding
//     layers, so the split-stream discipline cannot be bypassed by a leaf
//     package minting its own generator. Front-runs the golden draw-order
//     tests (TestPickGoldenStream).
//
// The other engine contracts have gates that are not lint: the per-exec
// allocation budget is `make alloc-guard`, checkpoint completeness is the
// round-trip and warm-restart equalities, and statistics published across
// goroutines are sync/atomic typed values, so a plain access does not
// compile. ARCHITECTURE.md "Static analysis" records which gate catches
// which violation.
//
// # Directives
//
// peachlint is steered by one comment directive:
//
//	//peachstar:nondeterministic <reason>
//	    Escape hatch for detsource and rnggate. The reason must explain why
//	    the nondeterminism provably cannot reach fuzzing state or emitted
//	    frames (e.g. the driver's wall-clock deadline check, which only
//	    decides *when* to stop, never *what* is executed).
//
// It applies to its own source line or the line directly below it (so it
// can sit on the statement or on its own line above); on a function's doc
// comment it applies to the whole function. Any other //peachstar: kind,
// and a directive without a reason, is reported as a diagnostic, so a typo
// can never silently disable a check and a stale annotation cannot linger.
//
// # Drivers
//
// cmd/peachlint is the multichecker: `peachlint ./...` loads packages via
// `go list -export` (type-checking against the build cache's export data,
// fully offline) and runs both analyzers; `make lint` wires it into
// `make check` and `make ci`, and TestLintSelfClean keeps the
// self-application in the ordinary test suite.
package analysis
