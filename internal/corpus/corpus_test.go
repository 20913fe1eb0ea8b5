package corpus

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/datamodel"
)

func puzzle(sig, data, model string) Puzzle {
	return Puzzle{Signature: sig, Data: []byte(data), Model: model}
}

func TestAddAndDonors(t *testing.T) {
	c := New(0)
	if !c.Empty() {
		t.Fatal("new corpus should be empty")
	}
	chunk := datamodel.Num("x", 2, 0)
	sig := datamodel.RuleSignature(chunk)
	if !c.Add(puzzle(sig, "ab", "m1")) {
		t.Fatal("first add should succeed")
	}
	if c.Add(puzzle(sig, "ab", "m1")) {
		t.Fatal("exact duplicate should be rejected")
	}
	donors := c.Donors(chunk)
	if len(donors) != 1 || !bytes.Equal(donors[0].Data, []byte("ab")) {
		t.Fatalf("donors = %+v", donors)
	}
	if c.Len() != 1 || c.Empty() {
		t.Fatal("corpus bookkeeping wrong")
	}
}

func TestDonorsRespectSignature(t *testing.T) {
	c := New(0)
	c.Add(puzzle(datamodel.RuleSignature(datamodel.Num("addr", 2, 0)), "xy", "m"))
	other := datamodel.Num("addr", 4, 0) // different width => different rule
	if len(c.Donors(other)) != 0 {
		t.Fatal("width-4 chunk must not receive width-2 donors")
	}
	role := datamodel.Num("version", 2, 0) // same shape, different role
	if len(c.Donors(role)) != 0 {
		t.Fatal("different-role number must not receive donors")
	}
	same := datamodel.Num("addr", 2, 99) // same rule in another model
	if len(c.Donors(same)) != 1 {
		t.Fatal("same-rule chunk should receive donors")
	}
}

func TestNonDonatableChunks(t *testing.T) {
	c := New(0)
	tok := datamodel.Num("op", 1, 3).AsToken()
	if c.Donors(tok) != nil {
		t.Fatal("tokens receive no donors")
	}
	n := &datamodel.Node{Chunk: tok, Data: []byte{3}}
	if c.AddNode("m", n) {
		t.Fatal("token instantiations are not stored")
	}
	rel := datamodel.Num("len", 2, 0).WithRel(datamodel.SizeOf, "op", 0)
	if c.AddNode("m", &datamodel.Node{Chunk: rel, Data: []byte{0, 2}}) {
		t.Fatal("relation fields are not stored")
	}
}

func TestCrossModelPreference(t *testing.T) {
	c := New(0)
	chunk := datamodel.Num("x", 2, 0)
	sig := datamodel.RuleSignature(chunk)
	c.Add(puzzle(sig, "aa", "m1"))
	c.Add(puzzle(sig, "bb", "m2"))
	cross := c.CrossModelDonors(chunk, "m1")
	if len(cross) != 1 || cross[0].Model != "m2" {
		t.Fatalf("cross donors = %+v", cross)
	}
	// When only same-model donors exist, fall back to them.
	fallback := c.CrossModelDonors(chunk, "m2")
	if len(fallback) != 1 || fallback[0].Model != "m1" {
		t.Fatalf("fallback donors = %+v", fallback)
	}
	only := New(0)
	only.Add(puzzle(sig, "cc", "m1"))
	fb := only.CrossModelDonors(chunk, "m1")
	if len(fb) != 1 {
		t.Fatal("same-model fallback missing")
	}
}

func TestEvictionBound(t *testing.T) {
	c := New(4)
	chunk := datamodel.Num("x", 2, 0)
	sig := datamodel.RuleSignature(chunk)
	for i := 0; i < 10; i++ {
		c.Add(puzzle(sig, fmt.Sprintf("%02d", i), "m"))
	}
	donors := c.Donors(chunk)
	if len(donors) != 4 {
		t.Fatalf("kept %d donors, want 4", len(donors))
	}
	// Oldest evicted: survivors are 06..09.
	if string(donors[0].Data) != "06" || string(donors[3].Data) != "09" {
		t.Fatalf("eviction order wrong: %s..%s", donors[0].Data, donors[3].Data)
	}
	if c.Len() != 4 {
		t.Fatalf("Len = %d", c.Len())
	}
	if c.inserted != 10 {
		t.Fatalf("inserted = %d", c.inserted)
	}
	// An evicted puzzle may be re-added (its dedup key was forgotten).
	if !c.Add(puzzle(sig, "00", "m")) {
		t.Fatal("evicted puzzle should be re-addable")
	}
}

func TestAddNodeCopiesData(t *testing.T) {
	c := New(0)
	chunk := datamodel.Bytes("b", 2, nil)
	data := []byte{1, 2}
	n := &datamodel.Node{Chunk: chunk, Data: data}
	c.AddNode("m", n)
	data[0] = 99
	if c.Donors(chunk)[0].Data[0] == 99 {
		t.Fatal("corpus aliases caller memory")
	}
}

func TestSignaturesSorted(t *testing.T) {
	c := New(0)
	c.Add(puzzle("zz", "1", "m"))
	c.Add(puzzle("aa", "2", "m"))
	sigs := c.Signatures()
	if len(sigs) != 2 || sigs[0] != "aa" || sigs[1] != "zz" {
		t.Fatalf("signatures = %v", sigs)
	}
}

func TestMergeFromDedups(t *testing.T) {
	a, b := New(0), New(0)
	a.Add(puzzle("sig1", "aa", "m1"))
	a.Add(puzzle("sig2", "bb", "m1"))
	b.Add(puzzle("sig1", "aa", "m2")) // duplicate content, different provenance
	b.Add(puzzle("sig1", "cc", "m2"))
	b.Add(puzzle("sig3", "dd", "m2"))

	if got := a.MergeFrom(b); got != 2 {
		t.Fatalf("merge added %d puzzles, want 2 (one exact duplicate dropped)", got)
	}
	if got := a.Len(); got != 4 {
		t.Fatalf("merged corpus holds %d puzzles, want 4", got)
	}
	if got := a.MergeFrom(b); got != 0 {
		t.Fatalf("second merge added %d puzzles, want 0", got)
	}
	// The source corpus is unchanged.
	if got := b.Len(); got != 3 {
		t.Fatalf("source corpus mutated: %d puzzles, want 3", got)
	}
}

func TestMergeFromRespectsPerSigBound(t *testing.T) {
	a, b := New(2), New(0)
	for i := 0; i < 5; i++ {
		b.Add(puzzle("sig", fmt.Sprintf("d%d", i), "m"))
	}
	a.MergeFrom(b)
	if got := a.Len(); got != 2 {
		t.Fatalf("bounded corpus holds %d puzzles, want 2", got)
	}
}

func TestMergeFromNeverEvicts(t *testing.T) {
	a, b := New(2), New(0)
	a.Add(puzzle("sig", "local1", "m"))
	a.Add(puzzle("sig", "local2", "m"))
	for i := 0; i < 4; i++ {
		b.Add(puzzle("sig", fmt.Sprintf("remote%d", i), "m"))
	}
	if got := a.MergeFrom(b); got != 0 {
		t.Fatalf("merge into a full signature added %d puzzles, want 0", got)
	}
	donors := a.bySig["sig"]
	if len(donors) != 2 || string(donors[0].Data) != "local1" || string(donors[1].Data) != "local2" {
		t.Fatalf("merge displaced local puzzles: %v", donors)
	}
	// Merging is idempotent: a second pass converges to a no-op even when
	// both corpora are bounded.
	if got := a.MergeFrom(b); got != 0 {
		t.Fatalf("repeat merge added %d puzzles, want 0", got)
	}
}

func TestJournalRecordsAcceptedPuzzles(t *testing.T) {
	c := New(0)
	if c.JournalLen() != 0 {
		t.Fatalf("fresh journal length = %d, want 0", c.JournalLen())
	}
	c.Add(puzzle("sig", "a", "m"))
	c.Add(puzzle("sig", "a", "m")) // duplicate: rejected, not journaled
	c.Add(puzzle("sig", "b", "m"))
	if got := c.JournalLen(); got != 2 {
		t.Fatalf("journal length = %d, want 2 (accepted only)", got)
	}
}

func TestMergeJournalAppliesOnlyTheDelta(t *testing.T) {
	src, dst := New(0), New(0)
	src.Add(puzzle("sig", "a", "m"))
	src.Add(puzzle("sig", "b", "m"))

	added, mark := dst.MergeJournal(src, 0)
	if added != 2 || mark != 2 {
		t.Fatalf("first delta: added=%d mark=%d, want 2,2", added, mark)
	}
	// Nothing new: replay from the mark is a no-op.
	if added, mark = dst.MergeJournal(src, mark); added != 0 || mark != 2 {
		t.Fatalf("empty delta: added=%d mark=%d, want 0,2", added, mark)
	}
	// New material after the mark is picked up, old entries are not
	// re-scanned.
	src.Add(puzzle("sig", "c", "m"))
	if added, mark = dst.MergeJournal(src, mark); added != 1 || mark != 3 {
		t.Fatalf("second delta: added=%d mark=%d, want 1,3", added, mark)
	}
	if dst.Len() != 3 {
		t.Fatalf("dst corpus = %d puzzles, want 3", dst.Len())
	}
}

func TestMergeJournalMatchesMergeFrom(t *testing.T) {
	src := New(0)
	for i := 0; i < 10; i++ {
		src.Add(puzzle(fmt.Sprintf("sig%d", i%3), fmt.Sprintf("d%d", i), "m"))
	}
	viaFrom, viaJournal := New(2), New(2)
	viaFrom.MergeFrom(src)
	viaJournal.MergeJournal(src, 0)
	if viaFrom.Len() != viaJournal.Len() {
		t.Fatalf("journal merge = %d puzzles, full merge = %d", viaJournal.Len(), viaFrom.Len())
	}
	for _, sig := range viaFrom.Signatures() {
		if len(viaFrom.bySig[sig]) != len(viaJournal.bySig[sig]) {
			t.Fatalf("signature %q: journal %d vs full %d", sig, len(viaJournal.bySig[sig]), len(viaFrom.bySig[sig]))
		}
	}
}

func TestMergeJournalNeverEvicts(t *testing.T) {
	src, dst := New(0), New(1)
	dst.Add(puzzle("sig", "local", "m"))
	src.Add(puzzle("sig", "remote", "m"))
	if added, _ := dst.MergeJournal(src, 0); added != 0 {
		t.Fatalf("delta into full signature added %d, want 0", added)
	}
	if got := dst.bySig["sig"][0].Data; string(got) != "local" {
		t.Fatalf("delta merge displaced local puzzle: %q", got)
	}
}

func TestMergedPuzzlesPropagateThroughJournal(t *testing.T) {
	// A puzzle pulled from the shared corpus enters the worker's journal,
	// so a third peer syncing against the worker still sees it.
	a, b, c := New(0), New(0), New(0)
	a.Add(puzzle("sig", "x", "m"))
	b.MergeJournal(a, 0)
	c.MergeJournal(b, 0)
	if c.Len() != 1 {
		t.Fatalf("puzzle did not propagate: c has %d", c.Len())
	}
}
