// Package analysis is peachlint: a static-analysis suite that enforces the
// engine's determinism, hot-path, and checkpoint invariants at compile time.
//
// The repository's core contracts — bit-for-bit campaign determinism, fixed
// RNG draw counts through internal/rng, a ≤0.75 allocs/exec steady-state
// hot path, atomics-only publication of fleet statistics, and complete
// Snapshot/Restore coverage of every checkpointed field — were historically
// guarded only by runtime golden tests that fire *after* a violation ships.
// This package turns each of those runtime guards into a build-time check:
// `make lint` (and therefore `make check` / `make ci`) fails with a
// file:line diagnostic the moment a violation is written, instead of when a
// golden fingerprint or allocation budget happens to notice.
//
// The suite is five analyzers, mirroring the golang.org/x/tools/go/analysis
// API shape (Analyzer/Pass/Diagnostic) but implemented on the standard
// library's go/ast + go/types only, so the module keeps zero external
// dependencies and `go build ./...` works offline:
//
//   - detsource  — in deterministic packages, forbids wall-clock reads
//     (time.Now/Since/Until), math/rand / crypto/rand imports, and map
//     `range` loops whose iteration order can reach output (appends, calls,
//     writes) without an intervening sort. Front-runs the
//     TestAdaptiveOffGolden / warm-restart fingerprint suites.
//   - rnggate    — all randomness must flow through internal/rng stream
//     handles: bans the stdlib rand packages repo-wide and restricts
//     rng.New / rng.Split (stream creation) to the designated seeding
//     layers, so the split-stream discipline cannot be bypassed by a leaf
//     package minting its own generator. Front-runs the golden draw-order
//     tests (TestPickGoldenStream).
//   - hotalloc   — functions annotated //peachstar:hotpath are checked for
//     alloc-introducing constructs: fmt calls, string concatenation and
//     string<->[]byte conversions, interface boxing, capturing closures,
//     map literals/makes, &T{} composite literals and new(T), and append
//     to an un-presized local slice. Front-runs
//     TestSteadyStateExecAllocBudget.
//   - snapfields — for every type with a checkpoint codec — one method
//     returning []checkpoint.Field (the field-list form the targets use),
//     or a hand-written Snapshot/Restore pair — every stored field must be
//     referenced by the list, or by both methods, or carry
//     //peachstar:nosnap.
//     Front-runs the checkpoint round-trip goldens and
//     TestCheckpointWarmRestartContinuesExactly by making the
//     new-field-silently-absent-from-warm-restart hazard a build failure.
//   - atomicmix  — a plain field that is published with sync/atomic
//     anywhere must never be plainly read or written outside the function
//     that constructs its owner; mixing the two is a data race the -race
//     suite only catches when the scheduler happens to interleave it.
//
// # Directives
//
// peachlint is steered by //peachstar: comment directives. A directive
// applies to its own source line or the line directly below it (so it can
// sit on the statement or on its own line above); on a function's doc
// comment it applies to the whole function. Every suppressing directive
// must carry a reason — a bare directive is itself a lint error.
//
//	//peachstar:hotpath
//	    Marks the function for the hotalloc analyzer. Applied to the
//	    per-exec loop: Engine.Step and its generation/mutation callees,
//	    coverage MergeTracer, datamodel flat-instance/arena paths,
//	    and mutator Pick*/Mutate.
//
//	//peachstar:nondeterministic <reason>
//	    Escape hatch for detsource and rnggate. The reason must explain why
//	    the nondeterminism provably cannot reach fuzzing state or emitted
//	    frames (e.g. the driver's wall-clock deadline check, which only
//	    decides *when* to stop, never *what* is executed).
//
//	//peachstar:allocok <reason>
//	    Escape hatch for hotalloc, for allocations that are off the
//	    steady-state path (e.g. arena slab growth, first-iteration sizing)
//	    and are amortised away by TestSteadyStateExecAllocBudget.
//
//	//peachstar:nosnap <reason>
//	    Field-level escape hatch for snapfields: the field is intentionally
//	    transient (scratch buffers, arena slabs, caches rebuilt on first
//	    use, wiring re-established by the restore path). sync.Mutex and
//	    sync.RWMutex fields are exempt without a directive — locks are
//	    never checkpointed.
//
//	//peachstar:nonatomic <reason>
//	    Escape hatch for atomicmix, for plain access that is provably
//	    race-free (e.g. reads at a quiescent merge-window boundary while
//	    all workers are parked).
//
// Misspelled or unknown //peachstar: directives, and suppressing
// directives without a reason, are reported as diagnostics so a typo can
// never silently disable a check.
//
// # Drivers
//
// cmd/peachlint is the multichecker: `peachlint ./...` loads packages via
// `go list -export` (type-checking against the build cache's export data,
// fully offline) and runs all five analyzers; `make lint` wires it into
// `make check` and `make ci`, and the root TestLintSelfClean keeps the
// self-application in the ordinary test suite.
package analysis
