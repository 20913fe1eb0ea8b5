# CI entry points for the Peach* reproduction. `make ci` is the full gate;
# the individual targets are what it runs. `make check` is the fast
# pre-commit gate: build + vet + lint + race + the hot-path allocation
# guard + the docs, API and size gates.

GO ?= go

.PHONY: ci check build vet lint test race soak fuzz alloc-guard docs-check api-check api-snapshot bench bench-compare profile loc loc-check clean

ci: build vet lint test race docs-check api-check loc-check soak

check: build vet lint race alloc-guard docs-check api-check loc-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific static analysis (see internal/analysis): detsource,
# rnggate, hotalloc, snapfields and atomicmix over every package. The
# suite also self-applies inside `go test` (TestLintSelfClean), so a
# violation turns both lint and test red.
lint:
	$(GO) run ./cmd/peachlint ./...

test:
	$(GO) test ./...

# Every package under the race detector (about a minute).
race:
	$(GO) test -race ./...

# Chaos soak over the real-target execution backend: a timed campaign
# against the bundled toy Modbus server while a chaos goroutine SIGKILLs
# the server out from under the supervisor. The session must complete, no
# coverage or corpus may be lost across restarts, and every captured
# reproducer must replay without diverging (see soak_test.go). The
# kill-and-resume storm does the same to the *fuzzer*: the peachstar CLI is
# repeatedly SIGKILLed mid-campaign and resumed from its durable checkpoint
# (see checkpoint_soak_test.go). Gated behind PEACHSTAR_SOAK so plain
# `go test ./...` stays fast and deterministic.
soak:
	PEACHSTAR_SOAK=1 $(GO) test -run 'TestSoakRealTarget|TestSoakKillResume' -count=1 -timeout 300s -v .

# Documentation gate: vet (which checks doc-comment placement pragmas) and
# docs_test.go — a package comment on every library package, the
# ARCHITECTURE.md sections other docs point at, and no citation of a file,
# cmd/ directory or make target that does not exist. The test also runs
# inside plain `go test ./...`.
docs-check:
	$(GO) vet ./...
	$(GO) test -run 'TestDocs' .

# Allocation-regression guard: the steady-state Peach* exec path must stay
# within the per-exec allocation budget (0.75 allocs/exec), and File Fixup —
# on a tree, and as the engine's flat copy → fixup → render — must allocate
# nothing (see hotpath_test.go).
alloc-guard:
	$(GO) test -run 'TestSteadyStateExecAllocBudget|TestApplyFixupsAllocFree' -v .

# Public-API gate: the exported peachstar surface must match the golden
# snapshot (api/peachstar.golden) and every exported symbol must carry a
# doc comment. A deliberate API change is reviewed by regenerating the
# golden with `make api-snapshot` and reading the diff in the commit.
api-check:
	$(GO) run ./cmd/apicheck

api-snapshot:
	$(GO) run ./cmd/apicheck -update

# Short native-fuzz smoke runs over the crack/generate round-trip targets,
# the fixup plan against its string-resolving reference, and every decoder
# built on the checkpoint codec — sequences, virgin deltas, fleetnet frames,
# campaign checkpoints (truncated, corrupt, and non-minimal-varint inputs
# must be rejected with errors, never panics).
fuzz:
	$(GO) test ./internal/datamodel -fuzz 'FuzzCrack$$' -fuzztime 10s -run XXX
	$(GO) test ./internal/datamodel -fuzz 'FuzzGenerate$$' -fuzztime 10s -run XXX
	$(GO) test ./internal/datamodel -fuzz 'FuzzCrackSeedCorpusBytes$$' -fuzztime 10s -run XXX
	$(GO) test ./internal/targets -fuzz 'FuzzFixupPlan$$' -fuzztime 10s -run XXX
	$(GO) test ./internal/session -fuzz 'FuzzSequenceCodec$$' -fuzztime 10s -run XXX
	$(GO) test ./internal/coverage -fuzz 'FuzzVirginDelta$$' -fuzztime 10s -run XXX
	$(GO) test ./internal/fleetnet -fuzz 'FuzzFrameDecode$$' -fuzztime 10s -run XXX
	$(GO) test . -fuzz 'FuzzCheckpointDecode$$' -fuzztime 10s -run XXX

# The repo's one benchmark (see cmd/bench/README.md and BENCHMARK.json):
# six closed-loop workloads, four end-to-end metrics, per-layer attribution;
# results land in .bench_build/results.json.
bench:
	$(GO) run ./cmd/bench

# Run the benchmark, then judge it against an earlier results file:
#   make bench-compare BASE=path/to/earlier-results
bench-compare: bench
	$(GO) run ./cmd/bench -compare $(BASE) .bench_build/results.json

# A CPU profile without writing a harness: one Fig. 4 panel of the named
# target under the profiler, then the top of the cumulative view.
#   make profile TARGET=Libiec61850   (Libmodbus, IEC104, Lib60870, Libiccp, Opendnp3)
TARGET ?= Libmodbus
profile:
	@mkdir -p .bench_build
	$(GO) test -run '^$$' -bench 'BenchmarkFig4$(TARGET)$$' -cpuprofile .bench_build/cpu.prof -o .bench_build/repro.test .
	$(GO) tool pprof -top -cum -nodecount 30 .bench_build/repro.test .bench_build/cpu.prof

# Non-test Go lines outside the benchmark and test fixtures (testdata/)
# — the tracked size metric. It counts the working tree: tracked files
# that still exist plus untracked ones git does not ignore, staged or not.
loc:
	@git ls-files --cached --others --exclude-standard '*.go' | grep -v '_test.go$$' | grep -v '/testdata/' | grep -v '^cmd/bench/' | \
		while read -r f; do [ -f "$$f" ] && echo "$$f"; done | xargs cat | wc -l

# Size gate: the tracked metric may not exceed the figure committed in the
# one-line LOC file. Growing it is a deliberate, reviewed act — regenerate
# with `make loc > LOC` and read the diff in the commit, like api-snapshot.
loc-check:
	@n=$$($(MAKE) -s --no-print-directory loc); max=$$(cat LOC); \
	if [ "$$n" -gt "$$max" ]; then \
		echo "loc-check: $$n non-test lines, LOC allows $$max (shrink the change, or regenerate deliberately: make loc > LOC)"; exit 1; \
	fi; echo "loc-check: $$n <= $$max"

clean:
	$(GO) clean -testcache
