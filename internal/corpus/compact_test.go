package corpus

import (
	"bytes"
	"fmt"
	"testing"
)

// fill adds n distinct puzzles across a few signatures and returns the
// corpus, mimicking a campaign's acceptance stream.
func fill(c *Corpus, start, n int) {
	for i := start; i < start+n; i++ {
		sig := fmt.Sprintf("sig-%d", i%5)
		c.Add(Puzzle{Signature: sig, Data: []byte(fmt.Sprintf("data-%04d", i)), Model: "m"})
	}
}

// equalCorpora asserts two corpora hold identical content: same signatures,
// same per-signature puzzle sequences, byte for byte.
func equalCorpora(t *testing.T, got, want *Corpus) {
	t.Helper()
	gs, ws := got.Signatures(), want.Signatures()
	if len(gs) != len(ws) {
		t.Fatalf("signature sets differ: got %v, want %v", gs, ws)
	}
	for i, sig := range ws {
		if gs[i] != sig {
			t.Fatalf("signature %d: got %q, want %q", i, gs[i], sig)
		}
		gp, wp := got.bySig[sig], want.bySig[sig]
		if len(gp) != len(wp) {
			t.Fatalf("%s: got %d puzzles, want %d", sig, len(gp), len(wp))
		}
		for j := range wp {
			if !bytes.Equal(gp[j].Data, wp[j].Data) || gp[j].Model != wp[j].Model {
				t.Fatalf("%s[%d]: got %+v, want %+v", sig, j, gp[j], wp[j])
			}
		}
	}
}

func TestCompactJournalNoPeersIsNoop(t *testing.T) {
	c := New(0)
	fill(c, 0, 20)
	if dropped := c.CompactJournal(); dropped != 0 {
		t.Fatalf("compaction with no registered peers dropped %d entries", dropped)
	}
	if c.JournalBase() != 0 || c.JournalLen() != 20 {
		t.Fatalf("journal changed: base %d len %d", c.JournalBase(), c.JournalLen())
	}
}

// TestCompactJournalWaitsForSlowestPeer is the safety property: a prefix is
// dropped only after every registered peer's cursor has passed it.
func TestCompactJournalWaitsForSlowestPeer(t *testing.T) {
	c := New(0)
	fill(c, 0, 30)
	fast := c.RegisterPeer(0)
	slow := c.RegisterPeer(0)
	c.AdvancePeer(fast, 30)
	if dropped := c.CompactJournal(); dropped != 0 {
		t.Fatalf("dropped %d entries while the slow peer's cursor is at 0", dropped)
	}
	c.AdvancePeer(slow, 12)
	if dropped := c.CompactJournal(); dropped != 12 {
		t.Fatalf("dropped %d entries, want 12 (the slow peer's cursor)", dropped)
	}
	if c.JournalBase() != 12 || c.JournalLen() != 30 {
		t.Fatalf("base %d len %d after compaction, want 12 / 30", c.JournalBase(), c.JournalLen())
	}
	// Cursors are absolute, so the slow peer's incremental read resumes
	// exactly where it left off.
	rest := 0
	if newMark := c.ReadJournal(12, func(Puzzle) { rest++ }); newMark != 30 || rest != 18 {
		t.Fatalf("resume read saw %d entries to mark %d, want 18 to 30", rest, newMark)
	}
}

func TestDroppedPeerStopsPinningJournal(t *testing.T) {
	c := New(0)
	fill(c, 0, 10)
	dead := c.RegisterPeer(0)
	live := c.RegisterPeer(0)
	c.AdvancePeer(live, 10)
	if dropped := c.CompactJournal(); dropped != 0 {
		t.Fatalf("dead peer at cursor 0 should pin the journal, dropped %d", dropped)
	}
	c.DropPeer(dead)
	if dropped := c.CompactJournal(); dropped != 10 {
		t.Fatalf("after dropping the dead peer, dropped %d entries, want 10", dropped)
	}
}

// TestMergeJournalAfterCompactionConverges checks that a consumer syncing
// incrementally across compactions ends bit-for-bit identical to one that
// replayed the full, never-compacted journal.
func TestMergeJournalAfterCompactionConverges(t *testing.T) {
	src := New(0)
	peer := src.RegisterPeer(0)

	subject := New(0) // merges incrementally, with compactions in between
	mark := 0
	for round := 0; round < 6; round++ {
		fill(src, round*25, 25)
		_, mark = merge(subject, src, mark)
		src.AdvancePeer(peer, mark)
		if round%2 == 1 {
			if dropped := src.CompactJournal(); dropped == 0 {
				t.Fatalf("round %d: expected compaction to drop entries", round)
			}
		}
	}

	control := New(0) // one full replay of an uncompacted equivalent
	full := New(0)
	fill(full, 0, 150)
	merge(control, full, 0)

	equalCorpora(t, subject, control)
}

// TestMergeJournalFallbackOnCompactedMark: a reconnecting peer whose saved
// mark predates the compaction horizon gets a full replay and still
// converges to the source's current contents.
func TestMergeJournalFallbackOnCompactedMark(t *testing.T) {
	src := New(0)
	fill(src, 0, 40)
	peer := src.RegisterPeer(0)
	src.AdvancePeer(peer, 40)
	if src.CompactJournal() != 40 {
		t.Fatal("setup: expected full compaction")
	}

	stale := New(0)
	added, mark := merge(stale, src, 3) // 3 < JournalBase: fallback
	if mark != src.JournalLen() {
		t.Fatalf("fallback mark = %d, want %d", mark, src.JournalLen())
	}
	if added != src.Len() {
		t.Fatalf("fallback added %d puzzles, want the full corpus (%d)", added, src.Len())
	}
	fresh := New(0)
	merge(fresh, src, fullReplay)
	equalCorpora(t, stale, fresh)
}

func TestReadJournalFallbackReplaysCurrentContents(t *testing.T) {
	src := New(0)
	fill(src, 0, 25)
	peer := src.RegisterPeer(0)
	src.AdvancePeer(peer, 20)
	src.CompactJournal()

	var seen int
	mark := src.ReadJournal(0, func(Puzzle) { seen++ }) // 0 < base: full replay
	if mark != src.JournalLen() || seen != src.Len() {
		t.Fatalf("fallback read saw %d puzzles to mark %d, want %d to %d",
			seen, mark, src.Len(), src.JournalLen())
	}
}

func TestRegisterPeerClampsResumeCursor(t *testing.T) {
	src := New(0)
	fill(src, 0, 10)
	p1 := src.RegisterPeer(0)
	src.AdvancePeer(p1, 10)
	src.CompactJournal()
	// A peer resuming below the horizon is clamped up to it; one resuming
	// past the end is clamped down.
	if id := src.RegisterPeer(2); src.peerCursors[id] != src.JournalBase() {
		t.Fatalf("stale resume cursor = %d, want clamp to base %d", src.peerCursors[id], src.JournalBase())
	}
	if id := src.RegisterPeer(999); src.peerCursors[id] != src.JournalLen() {
		t.Fatalf("overshooting cursor = %d, want clamp to len %d", src.peerCursors[id], src.JournalLen())
	}
}
