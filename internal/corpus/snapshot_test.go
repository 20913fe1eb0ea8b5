package corpus

import (
	"bytes"
	"encoding/hex"
	"testing"

	"repro/internal/checkpoint"
)

// TestRestoreRejectsWidePeerCursor: a peer cursor is stored as cursor+1 in
// a uvarint, and restore reads it as an int, so a stored value that does
// not fit the platform's int is refused on every word size instead of
// wrapping into a cursor the format never writes (2^64-1 into -2 on a
// 64-bit int, 2^32+1 into 0 on a 32-bit one).
func TestRestoreRejectsWidePeerCursor(t *testing.T) {
	c := New(4)
	c.Add(puzzle("sig", "data", "m"))
	c.RegisterPeer(0)
	var w checkpoint.Writer
	c.Snapshot(&w)
	good := w.Data()
	if good[len(good)-1] != 1 { // the last byte is the lone cursor, 0+1
		t.Fatalf("snapshot ends in %#x, want the cursor byte 0x01", good[len(good)-1])
	}
	if err := New(4).Restore(checkpoint.NewReader(good)); err != nil {
		t.Fatalf("the corpus's own snapshot does not restore: %v", err)
	}
	for _, tc := range []struct {
		name  string
		value uint64
	}{
		{"max-uint64", 1<<64 - 1},
		{"2^32+1", 1<<32 + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var wide checkpoint.Writer
			wide.Uvarint(tc.value)
			bad := append(append([]byte(nil), good[:len(good)-1]...), wide.Data()...)
			if err := New(4).Restore(checkpoint.NewReader(bad)); err == nil {
				t.Fatalf("restore accepted peer cursor value %d", tc.value)
			}
		})
	}
}

// goldenCorpus builds the shapes a campaign image holds but the in-process
// round-trip golden never reaches: an eviction (inserted > Len), a removed
// puzzle still in the journal, a compacted journal (JournalBase > 0), a
// dropped peer slot and a live cursor.
func goldenCorpus() *Corpus {
	c := New(2)
	for _, p := range []Puzzle{
		puzzle("sig-a", "a1", "m1"), puzzle("sig-a", "a2", "m2"), puzzle("sig-a", "a3", "m1"), // evicts a1
		puzzle("sig-b", "", "m2"), puzzle("sig-b", "b2", "m1"),
	} {
		c.Add(p)
	}
	c.Remove("sig-b", []byte("b2"))
	fast, dropped, slow := c.RegisterPeer(0), c.RegisterPeer(0), c.RegisterPeer(0)
	c.AdvancePeer(fast, 5)
	c.AdvancePeer(slow, 2)
	c.DropPeer(dropped)
	c.CompactJournal()
	return c
}

// TestCorpusSnapshotBytesGolden pins the corpus's checkpoint bytes: the
// per-signature bound and insert count, the store in signature order (each
// puzzle as model, data), the journal from its compaction horizon (each
// entry as signature, model, data: the fleet wire's record), and each
// cursor stored as cursor+1 (a dropped slot as 0). Restoring them and
// snapshotting again reproduces them.
func TestCorpusSnapshotBytesGolden(t *testing.T) {
	const golden = "0205" +
		"02" + "057369672d61" + "02" + "026d32026132" + "026d31026133" +
		"057369672d62" + "01" + "026d3200" +
		"02" + "03" + "057369672d61026d31026133" + "057369672d62026d3200" + "057369672d62026d31026232" +
		"03" + "06" + "00" + "03"
	c := goldenCorpus()
	if c.JournalBase() != 2 || c.Len() != 3 || c.Peers() != 3 {
		t.Fatalf("setup: base %d, %d puzzles, %d peer slots; want 2, 3, 3", c.JournalBase(), c.Len(), c.Peers())
	}
	var w checkpoint.Writer
	c.Snapshot(&w)
	if got := hex.EncodeToString(w.Data()); got != golden {
		t.Fatalf("corpus snapshot bytes changed:\n got %s\nwant %s", got, golden)
	}
	back := New(0)
	if err := back.Restore(checkpoint.NewReader(w.Data())); err != nil {
		t.Fatalf("restore: %v", err)
	}
	var again checkpoint.Writer
	back.Snapshot(&again)
	if !bytes.Equal(again.Data(), w.Data()) {
		t.Fatalf("restore → snapshot differs:\n got %x\nwant %x", again.Data(), w.Data())
	}
	if back.Len() != 3 || back.JournalBase() != 2 || back.JournalLen() != 5 || back.Peers() != 3 {
		t.Fatalf("restored corpus: %d puzzles, journal [%d, %d), %d peer slots", back.Len(), back.JournalBase(), back.JournalLen(), back.Peers())
	}
	if back.Add(puzzle("sig-a", "a2", "m9")) || !back.Add(puzzle("sig-a", "a1", "m9")) {
		t.Fatal("restored dedup set does not match the restored store")
	}
}

// TestCorpusRestoreRejects holds one hand-built image per check the corpus
// restore makes; each differs from the accepted control image in the one
// value that check refuses.
func TestCorpusRestoreRejects(t *testing.T) {
	type entry struct{ sig, data string }
	image := func(perSig int, store [][]entry, journal int, cursors ...int) []byte {
		var w checkpoint.Writer
		w.Int(perSig)
		w.Int(journal)
		w.Int(len(store))
		for _, list := range store {
			w.String(list[0].sig)
			w.Int(len(list) - 1)
			for _, e := range list[1:] {
				w.String("m")
				w.Blob([]byte(e.data))
			}
		}
		w.Int(0)
		w.Int(journal)
		for i := 0; i < journal; i++ {
			w.String("a")
			w.String("m")
			w.Blob([]byte{byte(i)})
		}
		w.Int(len(cursors))
		for _, cur := range cursors {
			w.Int(cur + 1)
		}
		return w.Data()
	}
	a := []entry{{sig: "a"}, {data: "x"}, {data: "y"}}
	b := []entry{{sig: "b"}, {data: "x"}}
	for _, tc := range []struct {
		name string
		img  []byte
		ok   bool
	}{
		{"control", image(2, [][]entry{a, b}, 1, 1, -1), true},
		{"non-positive per-signature bound", image(0, nil, 0), false},
		{"signatures out of order", image(2, [][]entry{b, a}, 0), false},
		{"repeated signature", image(2, [][]entry{a, a}, 0), false},
		{"empty list", image(2, [][]entry{{{sig: "a"}}}, 0), false},
		{"over-capacity list", image(1, [][]entry{a}, 0), false},
		{"duplicate puzzle", image(2, [][]entry{{{sig: "a"}, {data: "x"}, {data: "x"}}}, 0), false},
		{"peer cursor beyond the journal", image(2, [][]entry{a}, 1, 2), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := New(0).Restore(checkpoint.NewReader(tc.img))
			if tc.ok && err != nil {
				t.Fatalf("control image refused: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("restore accepted the image")
			}
		})
	}
}
