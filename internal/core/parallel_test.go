package core

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/sandbox"
)

func newFleet(t *testing.T, workers, budgetPerSync int, seed uint64) *Fleet {
	t.Helper()
	f, err := NewFleet(Config{
		Models:   toyModels(),
		Target:   newToyTarget(),
		Strategy: StrategyPeachStar,
		Seed:     seed,
	}, ParallelConfig{
		Workers:    workers,
		NewTarget:  func() sandbox.Target { return newToyTarget() },
		MergeEvery: budgetPerSync,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestParallelWorkers1MatchesSerial is the bit-for-bit guarantee: a
// single-worker fleet reproduces the serial engine exactly — same stats,
// same crashes, same corpus — because worker 0 keeps the campaign seed and
// the one-worker Run path performs no sync operations.
func TestParallelWorkers1MatchesSerial(t *testing.T) {
	serial := newEngine(t, StrategyPeachStar, 42)
	serial.Run(5000)

	fleet := newFleet(t, 1, 0, 42)
	fleet.Run(5000)

	if got, want := fleet.Stats(), serial.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("fleet(1) stats = %+v, serial stats = %+v", got, want)
	}
	sr, fr := serial.Crashes().Records(), fleet.Crashes().Records()
	if len(sr) != len(fr) {
		t.Fatalf("fleet(1) found %d crashes, serial %d", len(fr), len(sr))
	}
	for i := range sr {
		if sr[i].Site != fr[i].Site || sr[i].FirstExec != fr[i].FirstExec {
			t.Fatalf("crash %d differs: serial %+v, fleet %+v", i, sr[i], fr[i])
		}
	}
	if got, want := fleet.Corpus().Len(), serial.Corpus().Len(); got != want {
		t.Fatalf("fleet(1) corpus = %d puzzles, serial = %d", got, want)
	}
}

// TestParallelShardsBudget checks the multi-worker runner spends at least
// the budget, shards it across all workers, and aggregates a coherent
// campaign snapshot.
func TestParallelShardsBudget(t *testing.T) {
	const budget = 6000
	f := newFleet(t, 4, 128, 7)
	f.Run(budget)

	s := f.Stats()
	if s.Execs < budget {
		t.Fatalf("execs = %d, want >= %d", s.Execs, budget)
	}
	sum := 0
	for i, w := range f.workers {
		we := w.stats.Execs
		if we == 0 {
			t.Fatalf("worker %d performed no executions", i)
		}
		sum += we
	}
	if s.Execs != sum {
		t.Fatalf("aggregate execs %d != worker sum %d", s.Execs, sum)
	}
	if s.Paths == 0 || s.Edges == 0 {
		t.Fatalf("no coverage recorded: %+v", s)
	}
	if s.CorpusPuzzles == 0 {
		t.Fatalf("shared corpus empty after Peach* campaign: %+v", s)
	}
}

// TestParallelCrashDedup verifies the merged crash bank deduplicates faults
// discovered independently by several workers: the toy target's op2 crash is
// one unique vulnerability no matter how many workers trip it.
func TestParallelCrashDedup(t *testing.T) {
	f := newFleet(t, 4, 128, 1)
	f.Run(20000)

	found := 0
	for _, w := range f.workers {
		found += w.crashes.Unique()
	}
	if found < 2 {
		t.Skipf("only %d workers tripped the crash; dedup not exercised", found)
	}
	if got := f.Crashes().Unique(); got != 1 {
		t.Fatalf("merged unique crashes = %d, want 1 (workers found it %d times)", got, found)
	}
	if got := f.Stats().UniqueCrashes; got != 1 {
		t.Fatalf("aggregated stats report %d unique crashes, want 1", got)
	}
}

// TestParallelCoverageExchange: after a run, every worker has pulled the
// fleet-wide coverage union, so no worker knows fewer edges than it
// contributed and the shared map is the union of all.
func TestParallelCoverageExchange(t *testing.T) {
	f := newFleet(t, 3, 64, 9)
	f.Run(3000)
	_ = f.Stats() // folds final worker state into the shared union

	shared := f.state.Edges()
	for i, w := range f.workers {
		if we := w.virgin.Edges(); we > shared {
			t.Fatalf("worker %d knows %d edges, shared union only %d", i, we, shared)
		}
	}
}

// TestParallelRunExtends: Run may be called repeatedly to extend a
// campaign, and a second call with a spent budget is a no-op.
func TestParallelRunExtends(t *testing.T) {
	f := newFleet(t, 2, 64, 3)
	f.Run(1000)
	first := f.Stats().Execs
	if first < 1000 {
		t.Fatalf("first run execs = %d, want >= 1000", first)
	}
	f.Run(first) // already spent: no-op
	if got := f.Stats().Execs; got != first {
		t.Fatalf("no-op run advanced execs %d -> %d", first, got)
	}
	f.Run(first + 1000)
	if got := f.Stats().Execs; got < first+1000 {
		t.Fatalf("extended run execs = %d, want >= %d", got, first+1000)
	}
}

// TestParallelConfigValidation: multi-worker fleets need a target factory;
// worker counts are clamped to at least one.
func TestParallelConfigValidation(t *testing.T) {
	cfg := Config{Models: toyModels(), Target: newToyTarget(), Seed: 1}
	if _, err := NewFleet(cfg, ParallelConfig{Workers: 4}); err == nil {
		t.Fatal("NewFleet without NewTarget should error for workers > 1")
	}
	f, err := NewFleet(cfg, ParallelConfig{Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	if f.Workers() != 1 {
		t.Fatalf("workers = %d, want clamped to 1", f.Workers())
	}
}

// TestParallelWorkerStreamsDiverge: worker RNG streams split from the same
// campaign seed must not mirror each other — equal streams would fuzz the
// same sequence N times and scaling would be a lie.
func TestParallelWorkerStreamsDiverge(t *testing.T) {
	f := newFleet(t, 2, 64, 5)
	a := f.workers[0].r.Uint64()
	b := f.workers[1].r.Uint64()
	if a == b {
		t.Fatalf("worker streams emit identical first draw %d", a)
	}
}

// TestRunUntilStopsAtDeadline checks the deadline-aware loop: workers make
// progress, stop promptly once the deadline passes, and leave the shared
// state synced.
func TestRunUntilStopsAtDeadline(t *testing.T) {
	for _, workers := range []int{1, 3} {
		f := newFleet(t, workers, 64, 7)
		start := time.Now()
		f.Drive(nil, Budget{Deadline: start.Add(50 * time.Millisecond)}, nil)
		elapsed := time.Since(start)
		if f.Execs() == 0 {
			t.Fatalf("workers=%d: no executions before deadline", workers)
		}
		// Generous bound: the loop re-checks the deadline every engine
		// iteration, so overshoot is one iteration, not a merge window.
		if elapsed > 2*time.Second {
			t.Fatalf("workers=%d: Drive overshot deadline by %v", workers, elapsed)
		}
		s := f.Stats()
		if s.Execs != f.Execs() {
			t.Fatalf("workers=%d: stats/execs mismatch", workers)
		}
	}
}

// TestRunUntilPastDeadlineIsNoop: a deadline already in the past performs no
// executions.
func TestRunUntilPastDeadlineIsNoop(t *testing.T) {
	f := newFleet(t, 2, 64, 7)
	f.Drive(nil, Budget{Deadline: time.Now().Add(-time.Second)}, nil)
	if f.Execs() != 0 {
		t.Fatalf("past deadline ran %d execs, want 0", f.Execs())
	}
}

// TestJournalSyncMatchesFullMerge: a fleet whose sync windows exchange
// journal deltas must end with the same shared corpus a full MergeFrom walk
// would produce (MergeFrom over the final worker states is what Stats and
// Corpus still use).
func TestJournalSyncMatchesFullMerge(t *testing.T) {
	f := newFleet(t, 3, 128, 11)
	f.Run(4000)
	// Rebuild the union corpus from scratch with full walks.
	full := corpus.New(0)
	for _, w := range f.workers {
		full.MergeFrom(w.corp)
	}
	got := f.Corpus()
	if got.Len() == 0 {
		t.Skip("campaign found no puzzles under this seed")
	}
	// The shared corpus may additionally hold puzzles a worker has since
	// evicted locally, so compare as: every signature the full walk finds
	// is present in the delta-synced corpus.
	have := map[string]bool{}
	for _, sig := range got.Signatures() {
		have[sig] = true
	}
	for _, sig := range full.Signatures() {
		if !have[sig] {
			t.Fatalf("signature %q missing from delta-synced shared corpus", sig)
		}
	}
}

// TestSeedStreamOffsetsWorkerSeeds: a distributed leaf with SeedStream k
// must fuzz exactly the RNG streams workers k..k+n-1 of a local fleet
// would, so hosts sharing a campaign seed never duplicate a stream.
func TestSeedStreamOffsetsWorkerSeeds(t *testing.T) {
	local := newFleet(t, 3, 64, 42)
	leaf, err := NewFleet(Config{
		Models:   toyModels(),
		Target:   newToyTarget(),
		Strategy: StrategyPeachStar,
		Seed:     42,
	}, ParallelConfig{Workers: 1, SeedStream: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := leaf.workers[0].cfg.Seed, local.workers[2].cfg.Seed; got != want {
		t.Fatalf("SeedStream=2 worker seed = %d, local worker 2 seed = %d", got, want)
	}
}

// TestSyncAllFlushesSingleWorkerFleet: the single-worker Run path never
// syncs (serial equivalence), so SyncAll is the explicit flush a network
// leaf uses; after it, the shared state must hold the worker's discoveries.
func TestSyncAllFlushesSingleWorkerFleet(t *testing.T) {
	f := newFleet(t, 1, 0, 42)
	f.Run(3000)
	if f.state.Edges() != 0 {
		t.Fatal("single-worker Run should not have touched the shared state")
	}
	f.SyncAll()
	if got, want := f.state.Edges(), f.workers[0].virgin.Edges(); got != want {
		t.Fatalf("shared edges after SyncAll = %d, worker knows %d", got, want)
	}
	if f.state.CorpusLen() != f.workers[0].corp.Len() {
		t.Fatalf("shared corpus = %d puzzles, worker has %d",
			f.state.CorpusLen(), f.workers[0].corp.Len())
	}
}

// TestFleetSyncCompactsJournals: after steady syncing, neither the shared
// corpus journal nor the workers' journals may retain their fully consumed
// prefixes (the multi-day-campaign memory property from the ROADMAP).
func TestFleetSyncCompactsJournals(t *testing.T) {
	f := newFleet(t, 2, 64, 5)
	f.Run(6000)
	f.SyncAll()
	st := f.state
	if base, n := st.corp.JournalBase(), st.corp.JournalLen(); base == 0 && n > 0 {
		t.Fatalf("shared journal never compacted: base %d, len %d", base, n)
	}
	for i, w := range f.workers {
		if base, n := w.corp.JournalBase(), w.corp.JournalLen(); base == 0 && n > 0 {
			t.Fatalf("worker %d journal never compacted: base %d, len %d", i, base, n)
		}
	}
}

// TestParallelExecsApprox pins the concurrency-safe progress counter a
// fleetnet node reports to remote peers: readable from another goroutine
// while Run is in flight (the -race suite covers this test), and exactly
// equal to Execs once the fleet is quiescent.
func TestParallelExecsApprox(t *testing.T) {
	f := newFleet(t, 2, 64, 7)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-done:
				return
			default:
			}
			if got := f.ExecsApprox(); got < 0 {
				t.Errorf("ExecsApprox went negative: %d", got)
				return
			}
		}
	}()
	f.Run(4000)
	done <- struct{}{}
	<-done
	if got, want := f.ExecsApprox(), f.Execs(); got != want {
		t.Fatalf("quiescent ExecsApprox = %d, Execs = %d", got, want)
	}

	// The sync-free single-worker path publishes at the end of Run.
	s := newFleet(t, 1, 64, 7)
	s.Run(500)
	if got, want := s.ExecsApprox(), s.Execs(); got != want {
		t.Fatalf("single-worker ExecsApprox = %d, Execs = %d", got, want)
	}
}

// TestParallelRunBudgetSmallerThanWorkers: a budget that leaves some
// workers a zero shard must still terminate — those workers' absolute
// target equals their current count and they return without fuzzing,
// exactly as the pre-driver Run skipped them. (Regression: a zero
// target once meant "unbounded" and hung the fleet.)
func TestParallelRunBudgetSmallerThanWorkers(t *testing.T) {
	f := newFleet(t, 4, 0, 7)
	done := make(chan struct{})
	go func() {
		f.Run(2)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Run(2) with 4 workers never returned")
	}
	if got := f.Execs(); got < 2 {
		t.Fatalf("execs = %d, want >= 2", got)
	}
	// Extending the same fleet afterwards must still work.
	f.Run(600)
	if got := f.Execs(); got < 600 {
		t.Fatalf("execs after extension = %d, want >= 600", got)
	}
}
