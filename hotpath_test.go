package repro

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/datamodel"
	"repro/internal/targets"

	_ "repro/internal/targets/iec61850"
)

// TestSteadyStateExecAllocBudget is the allocation-regression guard for the
// per-exec path, one row per loop shape: the Peach* packet loop, the
// session loop (stepSession/executeSequence), and the adaptive scheduler's
// per-exec accounting. After a 30000-exec warm-up — corpus and valuable
// queues populated, arena slabs and scratch buffers at their high-water
// marks, the early discovery phase with its frequent cracking over — a
// 5000-exec Start session at seed 1 must average at most the row's budget
// in heap allocations per execution. Measured via runtime.MemStats.Mallocs
// around the whole window rather than testing.AllocsPerRun, because one
// engine iteration performs a variable number of executions; the session's
// own setup is a few dozen allocations, noise at this window.
//
// The per-exec generation path itself is allocation-free; what remains is
// amortized cracking, corpus and valuable-queue retention. The budgets
// leave headroom over the measured figure without letting the arena and
// scratch work silently rot.
func TestSteadyStateExecAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	for _, tc := range []struct {
		name               string
		target             string
		adaptive, sessions bool
		budget             float64 // allocs/exec; the comment gives the measured figure
	}{
		{"peachstar", "libmodbus", false, false, 0.75}, // 0.39
		{"sessions", "IEC104", false, true, 0.75},      // 0.10
		{"adaptive", "libmodbus", true, false, 1.0},    // 0.76
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCheckpointCampaign(t, tc.target, 1, tc.adaptive, tc.sessions)
			runCampaign(t, c, 30000)

			const window = 5000
			start := c.Stats().Execs
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			runCampaign(t, c, start+window)
			runtime.ReadMemStats(&after)
			execs := c.Stats().Execs - start

			perExec := float64(after.Mallocs-before.Mallocs) / float64(execs)
			t.Logf("steady state: %.2f allocs/exec over %d execs", perExec, execs)
			if perExec > tc.budget {
				t.Fatalf("steady-state exec path allocates %.2f objects/exec, budget is %.2f — the arena/scratch work has regressed",
					perExec, tc.budget)
			}
		})
	}
}

// TestApplyFixupsAllocFree: File Fixup runs on every seed the engine emits,
// so after one warm-up call (which compiles nothing — NewModel did — but
// may grow the pooled scratch, the draft's tables and the arena slabs)
// neither entry point allocates: the tree one (ApplyFixups and
// VerifyFixups flatten into pooled scratch) nor the engine's per-exec one
// (reset a draft to the sealed default instance, edit a leaf's length,
// fix it up, render it), measured on the deepest model of the deepest
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
	var draft datamodel.Draft
	src := model.DefaultFlat()
	leaf := -1 // the last variable-size leaf, so the edit moves lengths
	for i, n := range src.Leaves {
		if n.Chunk.Size == datamodel.Variable {
			leaf = i
		}
	}
	if leaf < 0 {
		t.Fatalf("%s has no variable-size leaf", model.Name)
	}
	edit := append(bytes.Clone(src.Leaves[leaf].Data), 'x')
	perExec := func() {
		arena.Reset()
		draft.Reset(src)
		draft.Set(leaf, edit)
		draft.ApplyFixups()
		draft.Render(&arena)
	}
	perExec() // overflows the empty slabs; the next Reset grows them
	if n := testing.AllocsPerRun(200, perExec); n != 0 {
		t.Fatalf("draft reset → edit → fixup → render on %s allocates %.1f objects per call", model.Name, n)
	}
}
