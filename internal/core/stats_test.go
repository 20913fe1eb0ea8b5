package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/coverage"
	"repro/internal/executor"
	"repro/internal/targets"
)

// newTargetFleet builds a Peach* fleet over one of the built-in targets.
func newTargetFleet(t *testing.T, name string, workers int, seed uint64) *Fleet {
	t.Helper()
	newTarget := func() targets.Target {
		tgt, err := targets.New(name)
		if err != nil {
			t.Fatal(err)
		}
		return tgt
	}
	tgt := newTarget()
	f, err := NewFleet(Config{
		Models:   tgt.Models(),
		Target:   tgt,
		Strategy: StrategyPeachStar,
		Seed:     seed,
	}, ParallelConfig{Workers: workers, NewTarget: func() executor.Target { return newTarget() }})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestStatsWritesNothing: reading a one-worker fleet's Stats leaves the
// shared state — what a served node ships to its peers — as it was. The
// worker has run on past a hand flush, so it knows more than the state,
// and Stats reports the larger view without merging it in.
func TestStatsWritesNothing(t *testing.T) {
	f := newTargetFleet(t, "libmodbus", 1, 1)
	f.Run(2000)
	f.SyncAll()
	f.Run(40000)
	edges, puzzles := f.State().Figures()
	s := f.Stats()
	if e, p := f.State().Figures(); e != edges || p != puzzles {
		t.Fatalf("Stats moved the shared state from %d edges, %d puzzles to %d, %d", edges, puzzles, e, p)
	}
	if s.Edges != 182 || s.CorpusPuzzles != 290 {
		t.Fatalf("Stats = %d edges, %d puzzles; want 182, 290", s.Edges, s.CorpusPuzzles)
	}
}

// TestDriveLeavesStateUnion: after a multi-worker Drive every worker's
// coverage and corpus are already in the shared state — each worker's
// final window synced into it — which is why Stats can read the union
// figures there without merging the workers in.
func TestDriveLeavesStateUnion(t *testing.T) {
	for _, workers := range []int{2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			f := newTargetFleet(t, "libmodbus", workers, 1)
			f.Drive(nil, Budget{Execs: 20000}, nil)
			st := f.State()
			for i, w := range f.workers {
				virgin := coverage.NewVirgin()
				virgin.MergeVirgin(st.virgin)
				if virgin.MergeVirgin(w.virgin) {
					t.Errorf("worker %d holds coverage the shared state lacks", i)
				}
				corp := corpus.New(0)
				replayAll(corp, st.corp)
				if n := replayAll(corp, w.corp); n != 0 {
					t.Errorf("worker %d holds %d puzzles the shared state would take", i, n)
				}
			}
		})
	}
}

// TestRestoreIntoUsedFleet: restoring a checkpoint into a fleet that has
// already run past it leaves the same figures as restoring it into a
// fresh fleet, on both Stats and StatsApprox — the published union
// figures roll back with the campaign instead of keeping the used fleet's
// high-water mark.
func TestRestoreIntoUsedFleet(t *testing.T) {
	const digest = 1
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			used := newTargetFleet(t, "libiec61850", workers, 1)
			used.Run(3000)
			ckpt := used.Checkpoint(digest)
			used.Run(30000)
			if err := used.RestoreCheckpoint(ckpt, digest); err != nil {
				t.Fatal(err)
			}
			fresh := newTargetFleet(t, "libiec61850", workers, 1)
			if err := fresh.RestoreCheckpoint(ckpt, digest); err != nil {
				t.Fatal(err)
			}
			if got, want := used.StatsApprox(), fresh.StatsApprox(); !reflect.DeepEqual(got, want) {
				t.Fatalf("StatsApprox after restoring into a used fleet = %+v, into a fresh one = %+v", got, want)
			}
			if got, want := used.Stats(), fresh.Stats(); !reflect.DeepEqual(got, want) {
				t.Fatalf("Stats after restoring into a used fleet = %+v, into a fresh one = %+v", got, want)
			}
		})
	}
}
