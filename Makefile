# CI entry points for the Peach* reproduction. `make ci` is the full gate;
# the individual targets are what it runs. `make check` is the fast
# pre-commit gate: build + vet + lint + race + the hot-path allocation
# guard + the inlining gate + the docs, API and size gates.

GO ?= go

.PHONY: ci check build vet lint test test-386 race race-sync flake soak fuzz alloc-guard inline-check docs-check api-check api-snapshot bench bench-compare profile loc loc-check clean

ci: build vet lint test test-386 race race-sync alloc-guard inline-check docs-check api-check loc-check soak

check: build vet lint test-386 race race-sync alloc-guard inline-check docs-check api-check loc-check

build:
	$(GO) build ./...

# The second pass type-checks every package, tests included, with a 32-bit
# int, keeping the word-size independence the checkpoint format claims.
vet:
	$(GO) vet ./...
	GOARCH=386 $(GO) vet ./...

# Project-specific static analysis (see internal/analysis): detsource and
# rnggate over every package — the determinism rules no golden can be
# trusted to catch. The suite also self-applies inside `go test`
# (TestLintSelfClean), so a violation turns both lint and test red.
lint:
	$(GO) run ./cmd/peachlint ./...

test:
	$(GO) test ./...

# The codec tests with a 32-bit int: every package whose state is in a
# checkpoint, then the byte-identity and warm-restart pins, so the format
# and its width checks hold on both word sizes (vet only type-checks 386).
# The frame golden pins the wire side of the bitmap and puzzle codecs the
# checkpoint shares.
test-386:
	GOARCH=386 $(GO) test ./internal/checkpoint ./internal/corpus ./internal/coverage ./internal/crash ./internal/core
	GOARCH=386 $(GO) test -run 'TestCheckpoint(BytesStable|RoundTripGolden|WarmRestartContinuesExactly)' .
	GOARCH=386 $(GO) test -run 'TestFrameBytesGolden' ./internal/fleetnet

# Every package under the race detector (about a minute).
race:
	$(GO) test -race ./...

# The session's boundary jobs under the race detector, many times over: a
# leaf's exchange and a checkpoint write each run beside the next window
# and are joined by the next boundary or the tail, and one -race pass can
# miss an interleaving. The root package's checkpoint-job tests (teardown
# with a write always in flight, and a leaf session with both jobs in
# flight) add about 15 s on a 2-vCPU Xeon. The Snapshot tests ride
# along: each worker publishes its progress record under a lock that any
# goroutine may take (they add about 30 s). The tests are listed once per
# package; flake runs the same lists.
SYNC_FLEETNET = TestSingleLeafTransportLossless|TestSyncAfterCloseRevivesUplink
SYNC_PEACHSTAR = TestLeafWindowOverlapsExchange|TestHubAttachmentPublishesLocalWork|TestServeAndDialSync|TestJoinMeshLoopback|TestStartStopDuringMeshSync|TestStartCancelMeshPromptness|TestStartSnapshotDuringRun|TestSnapshotMatchesStatsAfterWait
SYNC_ROOT = TestCheckpointWriterTeardown|TestCheckpointLeafSession

race-sync:
	$(GO) test -race -count=20 -run '$(SYNC_FLEETNET)' ./internal/fleetnet
	$(GO) test -race -count=20 -run '$(SYNC_PEACHSTAR)' ./peachstar
	$(GO) test -race -count=20 -run '$(SYNC_ROOT)' .

# Flake census: every race-sync test under the race detector N times
# (default 200), then each package's result line and the failures per test
# (its "--- FAIL" lines counted by name; a subtest counts under its own
# name). Any failure makes it exit non-zero. It stays out of check and ci
# because of its wall time: N=200 is ten race-syncs back to back. One
# N=200 run on a 2-vCPU Xeon (go1.24.0, idle host) took 33 min
# (fleetnet 19 min, peachstar 12, root 2) and found no failure.
N ?= 200
flake:
	@log=$$(mktemp); \
	$(GO) test -race -count=$(N) -timeout 3h -run '$(SYNC_FLEETNET)' ./internal/fleetnet >$$log 2>&1; \
	$(GO) test -race -count=$(N) -timeout 3h -run '$(SYNC_PEACHSTAR)' ./peachstar >>$$log 2>&1; \
	$(GO) test -race -count=$(N) -timeout 3h -run '$(SYNC_ROOT)' . >>$$log 2>&1; \
	grep -E '^(ok|FAIL)[[:space:]]' $$log; \
	fails=$$(sed -n 's/^ *--- FAIL: \([^ ]*\).*/\1/p' $$log | sort | uniq -c); \
	echo "failures per test over $(N) runs:"; echo "$${fails:-      none}"; \
	! grep -q '^FAIL' $$log; status=$$?; rm -f $$log; exit $$status

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

# Allocation-regression guard, the gate that keeps the per-exec path
# allocation-lean: the steady-state Peach*, session and adaptive exec paths
# must stay within their per-exec budgets, File Fixup — on a tree, and as
# the engine's flat copy → fixup → render — must allocate nothing (see
# hotpath_test.go), the warm semantic generation round must stay within
# its per-round budget (internal/core's sched_test.go), and a model that
# rejects a valuable seed must cost the crack path no allocation
# (internal/core's crack_equiv_test.go).
alloc-guard:
	$(GO) test -run 'TestSteadyStateExecAllocBudget|TestApplyFixupsAllocFree' -v .
	$(GO) test -run 'TestSemanticGenerateSteadyStateAllocs|TestCrackRejectAllocFree' -v ./internal/core

# Inlining gate, alloc-guard's companion for the instrumentation stub:
# coverage.(*Tracer).Hit runs at every instrumented branch of every
# target, so a call that is not inlined would cost a function call per
# branch. The compiler must report Hit inlinable, and the object code of
# every package under internal/targets and of internal/executor (the
# callers of Hit) must hold no call to it — a call the inliner refused,
# say in a function too big for the full budget, fails here too.
inline-check:
	@$(GO) build -gcflags=-m ./internal/coverage 2>&1 | grep 'can inline (\*Tracer).Hit$$' >/dev/null || \
		{ echo "inline-check: the compiler no longer reports (*Tracer).Hit inlinable"; exit 1; }
	@dir=$$(mktemp -d); status=0; \
	for p in $$($(GO) list ./internal/targets/... ./internal/executor); do \
		$(GO) build -o $$dir/pkg.a $$p || { status=1; break; }; \
		if $(GO) tool objdump $$dir/pkg.a | grep 'R_CALL:repro/internal/coverage\.(\*Tracer)\.Hit' >/dev/null; then \
			echo "inline-check: $$p calls (*Tracer).Hit without inlining it"; status=1; \
		fi; \
	done; rm -rf $$dir; \
	if [ $$status -eq 0 ]; then echo "inline-check: (*Tracer).Hit is inlined at every call site"; fi; exit $$status

# Public-API gate: the exported peachstar surface must match the golden
# snapshot (api/peachstar.golden) and every exported symbol must carry a
# doc comment. A deliberate API change is reviewed by regenerating the
# golden with `make api-snapshot` and reading the diff in the commit.
api-check:
	$(GO) run ./cmd/apicheck

api-snapshot:
	$(GO) run ./cmd/apicheck -update

# Short native-fuzz smoke runs over the crack/generate round-trip targets,
# the fixup plan against its string-resolving reference, the engine's
# one-walk coverage step against its definitions, and every decoder
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
	$(GO) test ./internal/coverage -fuzz 'FuzzVirginConsume$$' -fuzztime 10s -run XXX
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
