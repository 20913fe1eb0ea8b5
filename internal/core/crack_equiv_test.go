package core

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/datamodel"
	"repro/internal/rng"
	"repro/internal/targets"
	_ "repro/internal/targets/cs101"
	_ "repro/internal/targets/dnp3"
	_ "repro/internal/targets/iccp"
	_ "repro/internal/targets/iec104"
	_ "repro/internal/targets/iec61850"
	_ "repro/internal/targets/modbus"
)

// crackModelSets returns every built-in target's models, plus the model set
// of datamodel's FuzzCrack and a set built on the parse rules' corner cases:
// a greedy array whose failing element has already parsed a size-of value,
// zero-width array elements, and a choice alternative that binds a slot,
// logs a puzzle and parses a size-of value before it fails.
func crackModelSets(t *testing.T) map[string][]*datamodel.Model {
	sets := map[string][]*datamodel.Model{"toy": toyModels()}
	for _, name := range targets.Names() {
		tgt, err := targets.New(name)
		if err != nil {
			t.Fatal(err)
		}
		sets[name] = tgt.Models()
	}
	sets["fuzzcrack"] = []*datamodel.Model{
		datamodel.NewModel("M",
			datamodel.Num("ID", 2, 0x5249),
			datamodel.Num("Size", 2, 0).WithRel(datamodel.SizeOf, "Data", 0),
			datamodel.Blk("Data",
				datamodel.Num("CompressionCode", 2, 1),
				datamodel.Num("SampleRate", 4, 44100),
				datamodel.BytesVar("ExtraData", 0, 16, []byte{0xde, 0xad}),
			),
			datamodel.Num("CRC", 4, 0).WithFix(datamodel.CRC32IEEE, "ID", "Size", "Data"),
		),
		datamodel.NewModel("rel-chain",
			datamodel.Num("op", 1, 0x10).AsToken(),
			datamodel.Num("len", 2, 0).WithRel(datamodel.SizeOf, "body", 0),
			datamodel.Blk("body",
				datamodel.Num("addr", 2, 0),
				datamodel.BytesVar("data", 1, 32, []byte{1}),
			),
			datamodel.Num("crc", 2, 0).WithFix(datamodel.CRC16Modbus, "op", "len", "body"),
		),
		datamodel.NewModel("choice-arr",
			datamodel.Num("n", 1, 0).WithRel(datamodel.CountOf, "items", 0),
			datamodel.Rep("items", datamodel.Blk("item", datamodel.Num("t", 1, 0).WithLegal(1, 2), datamodel.Num("v", 2, 0)), 6),
		),
	}
	sets["corners"] = []*datamodel.Model{
		datamodel.NewModel("greedy-rel",
			datamodel.Rep("recs", datamodel.Blk("rec",
				datamodel.Num("k", 1, 7).WithLegal(7, 8),
				datamodel.Num("l", 1, 0).WithRel(datamodel.SizeOf, "tail", 0),
				datamodel.Num("z", 1, 0).WithLegal(0),
			), 0),
			datamodel.BytesVar("tail", 0, 8, nil),
		),
		datamodel.NewModel("zero-width",
			datamodel.Num("h", 1, 1).AsToken(),
			datamodel.Rep("empties", datamodel.Bytes("e", 0, nil), 0),
			datamodel.Alt("alt",
				datamodel.Blk("a", datamodel.Num("n", 1, 0).WithRel(datamodel.SizeOf, "b", 0), datamodel.Bytes("b", 1, nil), datamodel.Num("tag", 1, 0xA0).AsToken()),
				datamodel.Blk("b", datamodel.Num("m", 1, 0).WithRel(datamodel.CountOf, "xs", 0), datamodel.Rep("xs", datamodel.Num("x", 1, 0), 4)),
			),
			datamodel.Num("sum", 1, 0).WithFix(datamodel.Sum8, "h", "alt"),
			datamodel.BytesVar("b", 0, 8, nil),
		),
	}
	return sets
}

// crackPackets returns the packets TestCrackMatchesReference cracks against
// a model set: each model's default instance, random instances, byte-level
// mutations of both, random bytes, and the extra seeds of FuzzCrack.
func crackPackets(r *rng.RNG, models []*datamodel.Model) [][]byte {
	pkts := [][]byte{{}, {0x10, 0x00, 0x01, 0xFF}}
	for _, m := range models {
		for i := 0; i < 6; i++ {
			var pkt []byte
			if i == 0 {
				pkt = m.Generate().Bytes()
			} else {
				pkt = m.GenerateRandomFlat(new(datamodel.Flat), nil, r).Bytes()
			}
			pkts = append(pkts, pkt)
			for k := 0; k < 4; k++ {
				pkts = append(pkts, havocInto(r, nil, pkt))
			}
		}
		pkts = append(pkts, r.Bytes(r.Range(0, 24)))
	}
	return pkts
}

// TestCrackMatchesReference holds the engine's crack path to the tree walk
// it replaced (crack_ref_test.go). For every packet and every model of a
// set, the Cracker, Model.Crack and the reference must agree on accept or
// reject; on acceptance the trees must be equal, the Cracker's flat form
// must have the leaf table and shape Model.Flatten gives the reference tree
// and render the packet, and the puzzles addPuzzles hands the corpus — with
// the scheduler's refs — must be the reference DFS's, in order.
func TestCrackMatchesReference(t *testing.T) {
	r := rng.New(26)
	for name, models := range crackModelSets(t) {
		for _, m := range models {
			if err := m.Validate(); err != nil {
				t.Fatal(err)
			}
		}
		for _, tracked := range []bool{false, true} {
			e := &Engine{corp: corpus.New(4)}
			e.sched.on = tracked
			ref := corpus.New(4)
			accepted := 0
			for _, pkt := range crackPackets(r, models) {
				for _, m := range models {
					if checkCrack(t, e, ref, m, pkt, tracked) {
						accepted++
					}
				}
			}
			if accepted == 0 {
				t.Fatalf("%s: no packet cracked", name)
			}
			if got, want := journal(e.corp), journal(ref); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: corpus journals differ:\n got  %d puzzles\n want %d", name, len(got), len(want))
			}
		}
	}
}

// checkCrack cracks pkt against m both ways and reports whether it was
// accepted; see TestCrackMatchesReference.
func checkCrack(t *testing.T, e *Engine, ref *corpus.Corpus, m *datamodel.Model, pkt []byte, tracked bool) bool {
	t.Helper()
	want, refErr := refCrack(m, pkt)
	ok := e.crk.Crack(m, pkt)
	tree, err := m.Crack(pkt)
	if ok != (refErr == nil) || (err == nil) != ok {
		t.Fatalf("%s on %x: Cracker %v, Crack err %v, reference err %v", m.Name, pkt, ok, err, refErr)
	}
	if !ok {
		if !errors.Is(err, datamodel.ErrCrack) || !errors.Is(e.crk.Err(), datamodel.ErrCrack) {
			t.Fatalf("%s on %x: rejection does not wrap ErrCrack: %v / %v", m.Name, pkt, err, e.crk.Err())
		}
		return false
	}
	if e.crk.Err() != nil {
		t.Fatalf("%s: accepted crack reports %v", m.Name, e.crk.Err())
	}
	if !sameTree(tree, want) {
		t.Fatalf("%s on %x: Crack tree %s, reference %s", m.Name, pkt, tree, want)
	}

	var wantFlat datamodel.Flat
	m.Flatten(&wantFlat, want).Seal()
	got := e.crk.Flat().Clone()
	if len(got.Leaves) != len(wantFlat.Leaves) {
		t.Fatalf("%s on %x: %d leaves, reference %d", m.Name, pkt, len(got.Leaves), len(wantFlat.Leaves))
	}
	for i, n := range got.Leaves {
		w := wantFlat.Leaves[i]
		if n.Chunk != w.Chunk || !bytes.Equal(n.Data, w.Data) || (n.Data == nil) != (w.Data == nil) {
			t.Fatalf("%s on %x: leaf %d is %s=%x, reference %s=%x", m.Name, pkt, i, n.Chunk.Name, n.Data, w.Chunk.Name, w.Data)
		}
	}
	// The shape — slot spans, relation and checksum leaves — and the seal
	// compared whole: everything but the leaf pointers.
	gs, ws := *got, wantFlat
	gs.Leaves, ws.Leaves = nil, nil
	if !reflect.DeepEqual(gs, ws) {
		t.Fatalf("%s on %x: flat shape differs from Flatten's", m.Name, pkt)
	}
	if r := e.crk.Flat().Wire(); !bytes.Equal(r, pkt) {
		t.Fatalf("%s: flat renders %x, packet %x", m.Name, r, pkt)
	}

	refs := e.addPuzzles(m.Name, nil)
	_, wantRefs := refCollectPuzzles(ref, m.Name, want, nil, tracked)
	if len(refs) != len(wantRefs) {
		t.Fatalf("%s on %x: %d refs, reference %d", m.Name, pkt, len(refs), len(wantRefs))
	}
	for i := range refs {
		if refs[i].sig != wantRefs[i].sig || !bytes.Equal(refs[i].data, wantRefs[i].data) {
			t.Fatalf("%s on %x: ref %d is %q=%x, reference %q=%x", m.Name, pkt, i, refs[i].sig, refs[i].data, wantRefs[i].sig, wantRefs[i].data)
		}
	}
	return true
}

// sameTree reports whether two instance trees have the same chunks, the
// same leaf bytes (nil where the other is nil) and the same child lists.
func sameTree(a, b *datamodel.Node) bool {
	if a.Chunk != b.Chunk || !bytes.Equal(a.Data, b.Data) || (a.Data == nil) != (b.Data == nil) ||
		len(a.Children) != len(b.Children) || (a.Children == nil) != (b.Children == nil) {
		return false
	}
	for i := range a.Children {
		if !sameTree(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// journal lists a corpus's accepted puzzles in acceptance order, an empty
// puzzle's bytes as empty whether they are stored nil or not.
func journal(c *corpus.Corpus) []corpus.Puzzle {
	var out []corpus.Puzzle
	c.ReadJournal(0, func(p corpus.Puzzle) {
		if p.Data == nil {
			p.Data = []byte{}
		}
		out = append(out, p)
	})
	return out
}

// TestCrackRejectAllocFree: a model that rejects a seed costs the engine's
// crack path no allocation — no error string, no tree, no relation map —
// once the cracker's tables have grown. Every model of every built-in
// target is offered every other model's packets and random bytes, and a
// valuable seed no model accepts must crack for free end to end.
func TestCrackRejectAllocFree(t *testing.T) {
	r := rng.New(5)
	for _, name := range targets.Names() {
		tgt, err := targets.New(name)
		if err != nil {
			t.Fatal(err)
		}
		models := tgt.Models()
		e, err := New(Config{Models: models, Target: tgt, Strategy: StrategyPeachStar})
		if err != nil {
			t.Fatal(err)
		}
		junk := r.Bytes(40)
		pkts := [][]byte{junk}
		for _, m := range models {
			pkts = append(pkts, m.Generate().Bytes())
		}
		rejected := 0
		for _, pkt := range pkts {
			for _, m := range models {
				if e.crk.Crack(m, pkt) {
					continue
				}
				rejected++
				if n := testing.AllocsPerRun(20, func() { e.crk.Crack(m, pkt) }); n != 0 {
					t.Errorf("%s: rejecting %x with %s allocates %.1f times", name, pkt, m.Name, n)
				}
			}
		}
		if rejected == 0 {
			t.Fatalf("%s: nothing rejected", name)
		}
		if n := testing.AllocsPerRun(20, func() { e.crackValuable(junk, 1) }); n != 0 {
			t.Errorf("%s: a valuable seed every model rejects allocates %.1f times", name, n)
		}
	}
}
