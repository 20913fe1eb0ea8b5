package repro

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/datamodel"
	"repro/internal/targets"

	_ "repro/internal/targets/iec61850"
	_ "repro/internal/targets/modbus"
)

// newHotpathEngine builds the canonical hot-loop configuration: the serial
// Peach* engine on libmodbus — the loop cmd/bench's modbus_serial workload
// measures.
func newHotpathEngine(tb testing.TB, seed uint64) *core.Engine {
	tb.Helper()
	tgt, err := targets.New("libmodbus")
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := core.New(core.Config{
		Models:   tgt.Models(),
		Target:   tgt,
		Strategy: core.StrategyPeachStar,
		Seed:     seed,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return eng
}

// allocGuardBudget is the steady-state allocation ceiling per execution.
// With the byte arena threaded through the mutators and cross-model donor
// filtering writing into engine-owned scratch (Engine.donorScr) the
// engine measures ~0.4 allocs/exec in steady state (all amortized
// cracking, corpus and valuable-queue retention — the per-exec generation
// path itself is allocation-free); 0.75 leaves headroom without letting
// the arena/scratch work silently rot.
const allocGuardBudget = 0.75

// TestSteadyStateExecAllocBudget is the allocation-regression guard for the
// zero-allocation hot path: after warm-up, the full Peach* loop on
// libmodbus must average at most allocGuardBudget heap allocations per
// execution. Measured via runtime.MemStats.Mallocs around a 5000-exec
// window rather than testing.AllocsPerRun, because one engine iteration
// performs a variable number of executions.
func TestSteadyStateExecAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	eng := newHotpathEngine(t, 1)
	// Warm-up: populate the corpus and valuable queues, grow the arena
	// slabs and scratch buffers to their high-water marks, get past the
	// early coverage-discovery phase where cracking is frequent.
	eng.Run(30000)

	const window = 5000
	start := eng.Stats().Execs
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	eng.Run(start + window)
	runtime.ReadMemStats(&after)
	execs := eng.Stats().Execs - start

	perExec := float64(after.Mallocs-before.Mallocs) / float64(execs)
	t.Logf("steady state: %.2f allocs/exec over %d execs", perExec, execs)
	if perExec > allocGuardBudget {
		t.Fatalf("steady-state hot path allocates %.2f objects/exec, budget is %.2f — the arena/scratch work has regressed",
			perExec, allocGuardBudget)
	}
}

// TestApplyFixupsAllocFree: File Fixup runs on every seed the engine emits,
// so after one warm-up call (which compiles nothing — NewModel did — but
// may grow the pooled scratch and the arena slabs) neither entry point
// allocates: the tree one (ApplyFixups and VerifyFixups flatten into pooled
// scratch) nor the engine's per-exec one (copy the leaf table out of the
// arena, fix it up, render it), measured on the deepest model of the deepest
// target.
func TestApplyFixupsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	tgt, err := targets.New("libiec61850")
	if err != nil {
		t.Fatal(err)
	}
	var deepest *datamodel.Node
	var model *datamodel.Model
	for _, m := range tgt.Models() {
		if inst := m.Generate(); deepest == nil || len(inst.Leaves(nil)) > len(deepest.Leaves(nil)) {
			deepest, model = inst, m
		}
	}
	model.ApplyFixups(deepest)
	if n := testing.AllocsPerRun(200, func() { model.ApplyFixups(deepest) }); n != 0 {
		t.Fatalf("ApplyFixups on %s allocates %.1f objects per call", model.Name, n)
	}
	if n := testing.AllocsPerRun(200, func() { model.VerifyFixups(deepest) }); n != 0 {
		t.Fatalf("VerifyFixups on %s allocates %.1f objects per call", model.Name, n)
	}
	var arena datamodel.Arena
	var work datamodel.Flat
	src := model.DefaultFlat()
	perExec := func() {
		arena.Reset()
		work.CopyFrom(src, &arena)
		work.ApplyFixups()
		work.Render(&arena)
	}
	perExec() // overflows the empty slabs; the next Reset grows them
	if n := testing.AllocsPerRun(200, perExec); n != 0 {
		t.Fatalf("flat copy → fixup → render on %s allocates %.1f objects per call", model.Name, n)
	}
}
