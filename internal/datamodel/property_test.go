package datamodel

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// TestRoundTripProperty: for any seed, a randomly generated instance of any
// of several structurally diverse models serializes to bytes that crack back
// to an identical byte stream. This is the invariant Algorithm 2 depends on:
// valuable seeds produced by the generator are always crackable.
func TestRoundTripProperty(t *testing.T) {
	models := []*Model{
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
	f := func(seed uint64, which uint8) bool {
		m := models[int(which)%len(models)]
		r := rng.New(seed)
		inst := m.GenerateRandom(r)
		pkt := inst.Bytes()
		got, err := m.Crack(pkt)
		if err != nil {
			t.Logf("crack failed for model %s: %v (pkt %x)", m.Name, err, pkt)
			return false
		}
		return bytes.Equal(got.Bytes(), pkt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestFixupIdempotent: applying fixups twice equals applying them once.
func TestFixupIdempotent(t *testing.T) {
	m := figure1Model()
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := m.GenerateRandom(r)
		once := n.Bytes()
		m.ApplyFixups(n)
		return bytes.Equal(once, n.Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestFixupRepairsArbitraryMutation: after corrupting any non-structural
// leaf, ApplyFixups restores a packet that verifies.
func TestFixupRepairsArbitraryMutation(t *testing.T) {
	m := figure1Model()
	f := func(seed uint64, junk uint32) bool {
		r := rng.New(seed)
		n := m.GenerateRandom(r)
		// Corrupt a payload leaf, then repair.
		n.Find("SampleRate").SetUint(uint64(junk))
		m.ApplyFixups(n)
		return m.VerifyFixups(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestEncodeDecodeUintProperty: decodeUint inverts putUint for all widths
// and byte orders.
func TestEncodeDecodeUintProperty(t *testing.T) {
	f := func(v uint64, w uint8, little bool) bool {
		width := int(w%8) + 1
		e := Big
		if little {
			e = Little
		}
		masked := v & widthMask(width)
		buf := make([]byte, width)
		putUint(buf, masked, e)
		return decodeUint(buf, e) == masked
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestCRCLinearityProperty: CRC16 variants detect all single-bit errors on
// short messages (a guaranteed property of any CRC with a non-trivial
// polynomial over messages shorter than its period).
func TestCRCLinearityProperty(t *testing.T) {
	f := func(data []byte, bit uint16) bool {
		if len(data) == 0 || len(data) > 64 {
			return true
		}
		i := int(bit) % (len(data) * 8)
		orig := CRC16ModbusSum(data)
		origDNP := CRC16DNPSum(data)
		mut := append([]byte(nil), data...)
		mut[i/8] ^= 1 << (i % 8)
		return CRC16ModbusSum(mut) != orig && CRC16DNPSum(mut) != origDNP
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestLenMatchesBytes: Node.Len always equals len(Node.Bytes()).
func TestLenMatchesBytes(t *testing.T) {
	m := figure1Model()
	f := func(seed uint64) bool {
		n := m.GenerateRandom(rng.New(seed))
		return n.Len() == len(n.Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
