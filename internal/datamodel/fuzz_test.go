package datamodel

import (
	"bytes"
	"testing"

	"repro/internal/rng"
)

// fuzzModels is the structurally diverse model set the native fuzz targets
// exercise: the paper's Fig. 1 model plus a relation/fixup chain and a
// choice-array model — every chunk kind, relation and checksum the cracker
// and generator support.
func fuzzModels() []*Model {
	return []*Model{
		figure1Model(),
		NewModel("rel-chain",
			Num("op", 1, 0x10).AsToken(),
			Num("len", 2, 0).WithRel(SizeOf, "body", 0),
			Blk("body",
				Num("addr", 2, 0),
				BytesVar("data", 1, 32, []byte{1}),
			),
			Num("crc", 2, 0).WithFix(CRC16Modbus, "op", "len", "body"),
		),
		NewModel("choice-arr",
			Num("n", 1, 0).WithRel(CountOf, "items", 0),
			Rep("items", Blk("item", Num("t", 1, 0).WithLegal(1, 2), Num("v", 2, 0)), 6),
		),
	}
}

// FuzzCrack feeds arbitrary bytes to the cracker of every fuzz model. The
// invariants of Algorithm 2 under hostile input: cracking never panics, and
// any packet the cracker accepts re-serializes to exactly the bytes it
// consumed (otherwise puzzles collected from it would misrepresent the wire
// content) — as a tree, and as the flat form the engine's Cracker keeps,
// scratch and retained, whose last puzzle is the whole packet. Applying
// fixups to a cracked instance must also never panic — the engine does
// exactly that to every valuable seed.
func FuzzCrack(f *testing.F) {
	for _, m := range fuzzModels() {
		f.Add(m.Generate().Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte{0x10, 0x00, 0x01, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		var p Cracker
		for _, m := range fuzzModels() {
			ins, err := m.Crack(data)
			if ok := p.Crack(m, data); ok != (err == nil) {
				t.Fatalf("%s: Cracker says %v, Crack says %v on %x", m.Name, ok, err, data)
			}
			if err != nil {
				continue
			}
			if got := ins.Bytes(); !bytes.Equal(got, data) {
				t.Fatalf("%s: crack accepted %x but re-serializes to %x", m.Name, data, got)
			}
			if got := p.Flat().Wire(); !bytes.Equal(got, data) {
				t.Fatalf("%s: crack accepted %x but its flat form renders %x", m.Name, data, got)
			}
			if got := p.Flat().Clone().Wire(); !bytes.Equal(got, data) {
				t.Fatalf("%s: crack accepted %x but its retained flat form renders %x", m.Name, data, got)
			}
			if _, root := p.Puzzle(p.Puzzles() - 1); !bytes.Equal(root, data) {
				t.Fatalf("%s: crack accepted %x but its root puzzle is %x", m.Name, data, root)
			}
			m.ApplyFixups(ins)
			if got := len(ins.Bytes()); got == 0 && len(data) > 0 {
				t.Fatalf("%s: fixup collapsed a %d-byte packet to nothing", m.Name, len(data))
			}
		}
	})
}

// FuzzGenerate drives random generation from arbitrary RNG seeds. The
// invariants of Algorithm 3's output: generation and fixup never panic,
// fixups are idempotent (sizes and checksums converge in one pass), and the
// fixed-up packet always cracks back against its own model with identical
// bytes — generated seeds must be legal inputs to the cracker, or the
// crack–generate feedback cycle would leak.
func FuzzGenerate(f *testing.F) {
	f.Add(uint64(1), uint8(0))
	f.Add(uint64(0xdeadbeef), uint8(1))
	f.Add(^uint64(0), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, which uint8) {
		models := fuzzModels()
		m := models[int(which)%len(models)]
		r := rng.New(seed)
		ins := m.GenerateRandomFlat(new(Flat), nil, r)
		m.ApplyFixups(ins)
		pkt := ins.Bytes()
		if !m.VerifyFixups(ins) {
			t.Fatalf("%s: fixups not satisfied after ApplyFixups (pkt %x)", m.Name, pkt)
		}
		m.ApplyFixups(ins)
		if again := ins.Bytes(); !bytes.Equal(again, pkt) {
			t.Fatalf("%s: fixup not idempotent: %x then %x", m.Name, pkt, again)
		}
		back, err := m.Crack(pkt)
		if err != nil {
			t.Fatalf("%s: generated packet does not crack: %v (pkt %x)", m.Name, err, pkt)
		}
		if got := back.Bytes(); !bytes.Equal(got, pkt) {
			t.Fatalf("%s: crack(generate) round-trip %x -> %x", m.Name, pkt, got)
		}
	})
}

// FuzzCrackSeedCorpusBytes widens FuzzCrack's reach: interpret the input as
// a seed and mutate a legally generated packet at one position, which keeps
// the fuzzer near the accept/reject boundary where cracker bugs live.
func FuzzCrackSeedCorpusBytes(f *testing.F) {
	f.Add(uint64(3), uint16(0), uint8(0xFF))
	f.Fuzz(func(t *testing.T, seed uint64, pos uint16, val uint8) {
		models := fuzzModels()
		m := models[int(seed)%len(models)]
		r := rng.New(seed)
		ins := m.GenerateRandomFlat(new(Flat), nil, r)
		m.ApplyFixups(ins)
		pkt := ins.Bytes()
		if len(pkt) == 0 {
			return
		}
		pkt[int(pos)%len(pkt)] = val
		got, err := m.Crack(pkt)
		if err != nil {
			return
		}
		if !bytes.Equal(got.Bytes(), pkt) {
			t.Fatalf("%s: accepted mutated packet %x re-serializes differently", m.Name, pkt)
		}
	})
}
