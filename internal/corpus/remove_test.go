package corpus

import (
	"fmt"
	"testing"

	"repro/internal/datamodel"
)

// These tests pin the contract corpus distillation (internal/core's
// adaptive scheduler) leans on: Remove touches only the live store — the
// acceptance journal, its compaction horizon, and registered peer cursors
// are untouched — so a corpus can be pruned in the middle of an
// incremental sync and every reader still converges.

func TestRemoveSemantics(t *testing.T) {
	c := New(0)
	chunk := datamodel.Num("x", 2, 0)
	sig := datamodel.RuleSignature(chunk)
	c.Add(puzzle(sig, "aa", "m"))
	c.Add(puzzle(sig, "bb", "m"))

	if c.Remove(sig, []byte("zz")) {
		t.Fatal("removing an absent puzzle reported true")
	}
	if c.Remove("nosuchsig", []byte("aa")) {
		t.Fatal("removing under an absent signature reported true")
	}
	if !c.Remove(sig, []byte("aa")) {
		t.Fatal("removing a present puzzle reported false")
	}
	if c.Remove(sig, []byte("aa")) {
		t.Fatal("double remove reported true")
	}
	if c.Len() != 1 {
		t.Fatalf("corpus = %d puzzles after remove, want 1", c.Len())
	}
	donors := c.Donors(chunk)
	if len(donors) != 1 || string(donors[0].Data) != "bb" {
		t.Fatalf("donors after remove = %+v", donors)
	}

	// A removed puzzle is addable again: its dedup key is forgotten.
	if !c.Add(puzzle(sig, "aa", "m")) {
		t.Fatal("re-adding a removed puzzle was rejected as a duplicate")
	}

	// Removing the last puzzle of a signature clears the donor list
	// entirely.
	c.Remove(sig, []byte("aa"))
	c.Remove(sig, []byte("bb"))
	if got := c.Donors(chunk); len(got) != 0 {
		t.Fatalf("donors after clearing the signature = %+v", got)
	}
	if c.Len() != 0 || !c.Empty() {
		t.Fatal("corpus bookkeeping wrong after removing everything")
	}
}

// TestRemoveLeavesJournal: pruning is local-only — the journal still
// carries the removed puzzle, its length and base do not move, and a
// peer replaying the journal receives the puzzle the pruner dropped.
func TestRemoveLeavesJournal(t *testing.T) {
	src := New(0)
	src.Add(puzzle("sig", "a", "m"))
	src.Add(puzzle("sig", "b", "m"))
	jl, jb := src.JournalLen(), src.JournalBase()

	src.Remove("sig", []byte("a"))
	if src.JournalLen() != jl || src.JournalBase() != jb {
		t.Fatalf("Remove moved the journal: len %d→%d base %d→%d",
			jl, src.JournalLen(), jb, src.JournalBase())
	}

	dst := New(0)
	if added, _ := merge(dst, src, 0); added != 2 {
		t.Fatalf("replay after remove added %d, want 2 (journal is append-only)", added)
	}
	if dst.Len() != 2 {
		t.Fatalf("dst = %d puzzles, want 2", dst.Len())
	}
}

// TestDistillMidSync is the regression test for distillation racing an
// incremental journal sync: a source corpus is pruned between two delta
// windows, and the destination still converges on the journal's contents
// with valid marks — no skipped entries, no re-scans, and idempotent
// re-replay.
func TestDistillMidSync(t *testing.T) {
	src, dst := New(0), New(0)
	src.Add(puzzle("sig", "a", "m"))
	src.Add(puzzle("sig", "b", "m"))

	added, mark := merge(dst, src, 0)
	if added != 2 || mark != 2 {
		t.Fatalf("first window: added=%d mark=%d, want 2,2", added, mark)
	}

	// Distillation prunes "a" from the live store mid-sync, then fuzzing
	// continues and accepts fresh material.
	if !src.Remove("sig", []byte("a")) {
		t.Fatal("setup: remove failed")
	}
	src.Add(puzzle("sig", "c", "m"))
	src.Add(puzzle("sig2", "d", "m"))

	added, mark = merge(dst, src, mark)
	if added != 2 || mark != 4 {
		t.Fatalf("post-distill window: added=%d mark=%d, want 2,4", added, mark)
	}
	if dst.Len() != 4 {
		t.Fatalf("dst = %d puzzles, want 4 (removal does not propagate)", dst.Len())
	}

	// Re-replaying the full journal is idempotent for the destination…
	if added, _ = merge(dst, src, 0); added != 0 {
		t.Fatalf("full re-replay added %d, want 0", added)
	}
	// …and re-absorbs the pruned puzzle on the source itself, deduping on
	// a second pass (the crash-recovery path).
	if added, _ = merge(src, src, 0); added != 1 {
		t.Fatalf("self-replay re-added %d, want 1 (just the pruned puzzle)", added)
	}
	if added, _ = merge(src, src, 0); added != 0 {
		t.Fatalf("second self-replay added %d, want 0", added)
	}
}

// TestDistillWithPeerCursors: removal does not disturb registered peer
// cursors or the compaction horizon — a reader mid-stream keeps its exact
// position, and compaction after a prune still honors the slowest reader.
func TestDistillWithPeerCursors(t *testing.T) {
	src := New(0)
	for i := 0; i < 6; i++ {
		src.Add(puzzle("sig", fmt.Sprintf("p%d", i), "m"))
	}
	slow := src.RegisterPeer(2)
	fast := src.RegisterPeer(6)

	src.Remove("sig", []byte("p0"))
	src.Remove("sig", []byte("p3"))

	// Compaction is bounded by the slow reader at 2, untouched by the
	// removals above it.
	if dropped := src.CompactJournal(); dropped != 2 || src.JournalBase() != 2 {
		t.Fatalf("compaction dropped %d (base %d), want 2 up to the slow peer's cursor",
			dropped, src.JournalBase())
	}
	// The slow reader resumes from its cursor and sees every journal entry
	// from there — including the pruned p3.
	var got []string
	mark := src.ReadJournal(2, func(p Puzzle) { got = append(got, string(p.Data)) })
	if mark != 6 || len(got) != 4 {
		t.Fatalf("resume read: mark=%d entries=%v", mark, got)
	}
	for i, want := range []string{"p2", "p3", "p4", "p5"} {
		if got[i] != want {
			t.Fatalf("resume read entry %d = %q, want %q", i, got[i], want)
		}
	}

	src.AdvancePeer(slow, 6)
	src.DropPeer(fast)
	if dropped := src.CompactJournal(); dropped != 4 || src.JournalBase() != 6 {
		t.Fatalf("post-advance compaction dropped %d (base %d), want 4 up to 6",
			dropped, src.JournalBase())
	}

	// A reader whose mark predates the horizon is out of range: the call
	// degrades to a full replay of the live (distilled) store — the two
	// pruned puzzles are gone, everything else converges.
	dst := New(0)
	added, newMark := merge(dst, src, 0)
	if added != src.Len() || newMark != src.JournalLen() {
		t.Fatalf("out-of-range delta = %d,%d, want full replay %d,%d",
			added, newMark, src.Len(), src.JournalLen())
	}
	if dst.Len() != 4 {
		t.Fatalf("fallback merged %d puzzles, want the 4 live ones", dst.Len())
	}
}
