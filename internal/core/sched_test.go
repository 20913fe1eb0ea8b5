package core

import (
	"reflect"
	"testing"
)

// newAdaptiveEngine builds a toy-target engine with the adaptive scheduler
// on — the configuration the sched.go tests exercise.
func newAdaptiveEngine(t *testing.T, seed uint64) *Engine {
	t.Helper()
	e, err := New(Config{
		Models:   toyModels(),
		Target:   newToyTarget(),
		Strategy: StrategyPeachStar,
		Seed:     seed,
		Adaptive: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestAdaptiveOffNoSchedulerState: with Config.Adaptive unset the
// scheduler stays the zero value — no stats surface, no distillations, no
// scheduler code on the hot path.
func TestAdaptiveOffNoSchedulerState(t *testing.T) {
	e := newEngine(t, StrategyPeachStar, 1)
	if e.sched.on {
		t.Fatal("scheduler on without Config.Adaptive")
	}
	e.Run(2000)
	s := e.Stats()
	if s.MutatorStats != nil || s.Distills != 0 {
		t.Fatalf("adaptive-off stats carry scheduler state: %+v", s)
	}
}

// TestAdaptiveReproducible: an adaptive campaign is a pure function of its
// seed — the scheduler's weighted draws consume the same deterministic RNG
// and its weight updates are plain arithmetic over deterministic counters.
func TestAdaptiveReproducible(t *testing.T) {
	a := newAdaptiveEngine(t, 7)
	b := newAdaptiveEngine(t, 7)
	a.Run(20000)
	b.Run(20000)
	sa, sb := a.Stats(), b.Stats()
	if !reflect.DeepEqual(sa, sb) {
		t.Fatalf("adaptive runs diverged:\n%+v\n%+v", sa, sb)
	}
	if a.Corpus().Len() != b.Corpus().Len() {
		t.Fatalf("corpora diverged: %d vs %d", a.Corpus().Len(), b.Corpus().Len())
	}
}

// TestAdaptiveMutatorAccounting: the lifetime operator counters behave as
// counters — trials accumulate across the run, hits never exceed trials,
// and the names map one-to-one onto the mutator suite.
func TestAdaptiveMutatorAccounting(t *testing.T) {
	e := newAdaptiveEngine(t, 3)
	e.Run(20000)
	stats := e.Stats().MutatorStats
	if len(stats) != len(e.muts.Suite()) {
		t.Fatalf("%d mutator stats for %d mutators", len(stats), len(e.muts.Suite()))
	}
	var trials uint64
	for i, st := range stats {
		if st.Name != e.muts.Suite()[i].Name() {
			t.Fatalf("stat %d named %q, mutator is %q", i, st.Name, e.muts.Suite()[i].Name())
		}
		if st.Hits > st.Trials {
			t.Fatalf("%s: %d hits out of %d trials", st.Name, st.Hits, st.Trials)
		}
		trials += st.Trials
	}
	if trials == 0 {
		t.Fatal("no trials recorded over 20000 adaptive executions")
	}
}

// TestAdaptiveWeightBounds: once a model leaves warmup its weight table is
// live and every operator sits inside [floor, floor+span] — the bounds the
// starvation guarantee rests on. Models still in warmup keep a nil table
// (the uniform draw).
func TestAdaptiveWeightBounds(t *testing.T) {
	e := newAdaptiveEngine(t, 5)
	e.Run(30000)
	s := &e.sched
	live := 0
	for mi := range s.weights {
		if s.weights[mi] == nil {
			if s.totalTrials[mi] >= schedWarmupTrials+schedRecalcEvery {
				t.Fatalf("model %d has %d trials but no weight table", mi, s.totalTrials[mi])
			}
			continue
		}
		live++
		for i, w := range s.weights[mi] {
			if w < schedFloorWeight || w > schedFloorWeight+schedSpanWeight {
				t.Fatalf("model %d mutator %d weight %d outside [%d, %d]",
					mi, i, w, schedFloorWeight, schedFloorWeight+schedSpanWeight)
			}
		}
	}
	if live == 0 {
		t.Fatal("no model left warmup over 30000 executions")
	}
}

// TestDistillPreservesUnionEdges: a forced distillation keeps the tracked
// contributors' union edge set intact by construction, prunes exactly the
// puzzles it reports, and leaves consistent tracker bookkeeping.
func TestDistillPreservesUnionEdges(t *testing.T) {
	e := newAdaptiveEngine(t, 11)
	for budget := 5000; len(e.sched.contribs) < 4 && budget <= 40000; budget += 5000 {
		e.Run(budget)
	}
	s := &e.sched
	if len(s.contribs) < 4 {
		t.Skipf("only %d contributors tracked; toy campaign too shallow for a meaningful cover", len(s.contribs))
	}

	union := func(contribs []contributor) map[uint16]bool {
		u := make(map[uint16]bool)
		for _, c := range contribs {
			for _, edge := range c.edges {
				u[edge] = true
			}
		}
		return u
	}
	before := union(s.contribs)
	nBefore := len(s.contribs)
	corpusBefore := e.corp.Len()
	distillsBefore := s.distills

	e.distillCorpus()

	if s.distills != distillsBefore+1 || len(s.pending) == 0 {
		t.Fatalf("distillation not recorded: distills=%d pending=%d", s.distills, len(s.pending))
	}
	info := s.pending[len(s.pending)-1]
	if info.SeedsKept != len(s.contribs) || info.SeedsKept+info.SeedsDropped != nBefore {
		t.Fatalf("cover bookkeeping: %+v with %d contributors before, %d after",
			info, nBefore, len(s.contribs))
	}
	after := union(s.contribs)
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("distillation lost edges: union %d → %d", len(before), len(after))
	}
	if info.Edges != len(before) {
		t.Fatalf("reported union %d edges, tracker has %d", info.Edges, len(before))
	}
	if got := corpusBefore - e.corp.Len(); got != info.PuzzlesDropped {
		t.Fatalf("corpus shrank by %d puzzles, distillation reported %d", got, info.PuzzlesDropped)
	}

	// A second pass over the already-minimal set changes nothing: every
	// contributor is in the cover, nothing to prune.
	lenBefore := e.corp.Len()
	e.distillCorpus()
	info = s.pending[len(s.pending)-1]
	if info.SeedsDropped != 0 || info.PuzzlesDropped != 0 || e.corp.Len() != lenBefore {
		t.Fatalf("re-distilling a minimal set pruned something: %+v", info)
	}
}

// TestTakeDistills: the pending queue drains once and stays empty.
func TestTakeDistills(t *testing.T) {
	e := newAdaptiveEngine(t, 13)
	if got := e.takeDistills(); got != nil {
		t.Fatalf("fresh engine has pending distills: %+v", got)
	}
	e.sched.pending = append(e.sched.pending, DistillInfo{SeedsKept: 1})
	if got := e.takeDistills(); len(got) != 1 {
		t.Fatalf("take = %+v, want the one pending entry", got)
	}
	if got := e.takeDistills(); got != nil {
		t.Fatalf("second take = %+v, want nil", got)
	}
}

// TestSemanticGenerateSteadyStateAllocs guards the donor-scratch fix: in
// steady state a semantic generation round writes its cross-model donor
// filtering into engine-owned scratch (donorScr) and its trees and seeds
// into the arena, so the round itself stays allocation-lean. The budget is
// deliberately above zero: batch dedup keys and valuable-queue copies are
// real retention, not scratch — but a regression to per-round donor-slice
// allocation (one per leaf per round) blows well past it.
func TestSemanticGenerateSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	e := newEngine(t, StrategyPeachStar, 1)
	e.Run(30000) // warm: corpus, valuable queues, scratch high-water marks
	if e.corp.Empty() {
		t.Fatal("warmup produced no corpus; semantic rounds would be no-ops")
	}
	avg := testing.AllocsPerRun(200, func() {
		e.arena.Reset()
		e.pending = e.pending[:0]
		e.semanticGenerate(0)
	})
	t.Logf("semantic round: %.2f allocs", avg)
	// Measures 2.0 on the toy target (batch-key retention); a per-leaf
	// donor-slice regression adds one per leaf per round, far above 4.
	const budget = 4.0
	if avg > budget {
		t.Fatalf("semantic generation allocates %.2f objects/round, budget %.1f — donor scratch has regressed", avg, budget)
	}
}
