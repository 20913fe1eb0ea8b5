package datamodel

import (
	"bytes"
	"hash/crc32"
	"testing"

	"repro/internal/rng"
)

// TestBlobFixupWiderThan8: a Blob fixup field wider than the 8-byte sum is
// legal per Validate and reachable whenever a mutator grows one. It holds
// the sum big-endian in its last 8 bytes and zeros before, is written in
// place, and verifies only in exactly that form.
func TestBlobFixupWiderThan8(t *testing.T) {
	m := NewModel("m",
		Bytes("payload", 4, []byte{1, 2, 3, 4}),
		Bytes("sum", 12, nil).WithFix(CRC32IEEE, "payload"),
	)
	n := m.Generate()
	sum := crc32.ChecksumIEEE([]byte{1, 2, 3, 4})
	want := []byte{0, 0, 0, 0, 0, 0, 0, 0, byte(sum >> 24), byte(sum >> 16), byte(sum >> 8), byte(sum)}
	field := n.Find("sum")
	if !bytes.Equal(field.Data, want) {
		t.Fatalf("sum = %x, want %x", field.Data, want)
	}
	if !m.VerifyFixups(n) {
		t.Fatal("fixed-up instance must verify")
	}
	if _, err := m.Crack(n.Bytes()); err != nil {
		t.Fatalf("fixed-up packet must crack: %v", err)
	}

	// Garbage in every byte, prefix included, is repaired in place.
	for i := range field.Data {
		field.Data[i] = 0xA5
	}
	backing := &field.Data[0]
	if m.VerifyFixups(n) {
		t.Fatal("garbage sum verified")
	}
	m.ApplyFixups(n)
	if !bytes.Equal(field.Data, want) || &field.Data[0] != backing {
		t.Fatalf("repair: sum = %x (want %x), in place = %v", field.Data, want, &field.Data[0] == backing)
	}
	field.Data[0] = 1
	if m.VerifyFixups(n) {
		t.Fatal("non-zero prefix verified")
	}
}

// TestDraftOwnsFixupBytes: a draft aliases its base's leaf bytes and the
// bytes edits hand it, so what File Fixup writes — here a Blob checksum
// field, which the base's Flat.ApplyFixups writes in place — must land in
// the draft's own storage, or fixing up one worker's draft would rewrite the
// checksum of the shared base under every other worker.
func TestDraftOwnsFixupBytes(t *testing.T) {
	m := NewModel("m",
		Bytes("payload", 4, []byte{1, 2, 3, 4}),
		Bytes("sum", 12, nil).WithFix(CRC32IEEE, "payload"),
	)
	src := m.DefaultFlat()
	before := bytes.Clone(src.Wire())
	edit := []byte{9, 9, 9, 9}
	var d Draft
	for round := 0; round < 2; round++ {
		d.Reset(src)
		d.Set(0, edit)
		d.Set(1, src.Leaves[1].Data)
		d.ApplyFixups()
		if _, err := m.Crack(d.Render(nil)); err != nil || bytes.Equal(d.Data(1), src.Leaves[1].Data) {
			t.Fatalf("draft not fixed up: sum %x (%v)", d.Data(1), err)
		}
		if !bytes.Equal(src.Wire(), before) || !bytes.Equal(edit, []byte{9, 9, 9, 9}) {
			t.Fatalf("fixing up the draft wrote through: base %x → %x, edit %x", before, src.Wire(), edit)
		}
	}
}

// TestRelationBindsFirstOccurrence pins the binding rule the engine and its
// goldens rely on: a relation or fixup name binds, per instance, to the
// first chunk in document order carrying it. Names are not required to be
// unique, so this is observable, and the compiled plan must not "fix" it.
func TestRelationBindsFirstOccurrence(t *testing.T) {
	// Every array element's length field measures the first element's value.
	arr := NewModel("arr",
		Rep("elems", Blk("elem",
			Num("len", 1, 0).WithRel(SizeOf, "val", 0),
			BytesVar("val", 0, 9, nil),
		), 4),
	)
	n := arr.Generate()
	elems := n.Find("elems")
	elems.Children = append(elems.Children, elems.Children[0].Clone(), elems.Children[0].Clone())
	for i, size := range []int{5, 2, 7} {
		elems.Children[i].Children[1].Data = make([]byte, size)
	}
	arr.ApplyFixups(n)
	for i, e := range elems.Children {
		if got := e.Children[0].Uint(); got != 5 {
			t.Fatalf("element %d length field = %d, want the first element's size 5", i, got)
		}
	}
	if !arr.VerifyFixups(n) {
		t.Fatal("VerifyFixups must apply the same binding")
	}

	// A name only the untaken alternative carries binds to nothing: the
	// relation field is left alone and the fixup covers no bytes of it.
	alt := NewModel("alt",
		Num("len", 1, 0x77).WithRel(SizeOf, "b-body", 0),
		Alt("which", Blk("a", Num("x", 1, 1)), Blk("b", BytesVar("b-body", 1, 4, []byte{1, 2}))),
		Num("sum", 1, 0).WithFix(Sum8, "b-body", "len"),
	)
	n = alt.Generate() // first alternative: no b-body
	if got := n.Find("len").Uint(); got != 0x77 {
		t.Fatalf("len = %#x, want its default 0x77 untouched", got)
	}
	if got := n.Find("sum").Uint(); got != 0x77 {
		t.Fatalf("sum = %#x, want Sum8 over len alone", got)
	}
	if !alt.VerifyFixups(n) {
		t.Fatal("an unbound relation must not fail verification")
	}
	r := rng.New(1)
	for n.Find("b-body") == nil {
		n = alt.GenerateRandomFlat(new(Flat), nil, r)
	}
	if got, want := n.Find("len").Uint(), uint64(n.Find("b-body").Len()); got != want {
		t.Fatalf("with the alternative taken len = %d, want %d", got, want)
	}
}

// crc16Bitwise is the textbook reflected CRC16, one bit at a time — the
// reference the table-driven sums are held to.
func crc16Bitwise(poly, crc uint16, data []byte) uint16 {
	for _, b := range data {
		crc ^= uint16(b)
		for i := 0; i < 8; i++ {
			if crc&1 != 0 {
				crc = crc>>1 ^ poly
			} else {
				crc >>= 1
			}
		}
	}
	return crc
}

// TestCRC16MatchesBitwise: table-driven equals bit-at-a-time on every
// length 0..300, and both polynomials hit their catalogue check values.
func TestCRC16MatchesBitwise(t *testing.T) {
	r := rng.New(16)
	data := make([]byte, 300)
	for i := range data {
		data[i] = r.Byte()
	}
	for n := 0; n <= len(data); n++ {
		if got, want := CRC16ModbusSum(data[:n]), crc16Bitwise(0xA001, 0xFFFF, data[:n]); got != want {
			t.Fatalf("modbus, %d bytes: table %#04x, bitwise %#04x", n, got, want)
		}
		if got, want := CRC16DNPSum(data[:n]), ^crc16Bitwise(0xA6BC, 0, data[:n]); got != want {
			t.Fatalf("dnp, %d bytes: table %#04x, bitwise %#04x", n, got, want)
		}
	}
	check := []byte("123456789")
	if got := CRC16ModbusSum(check); got != 0x4B37 {
		t.Fatalf("CRC-16/MODBUS check = %#04x, want 0x4B37", got)
	}
	if got := CRC16DNPSum(check); got != 0xEA82 {
		t.Fatalf("CRC-16/DNP check = %#04x, want 0xEA82", got)
	}
}

var crcSink uint16

func BenchmarkCRC16(b *testing.B) {
	data := make([]byte, 1024)
	r := rng.New(1)
	for i := range data {
		data[i] = r.Byte()
	}
	for _, bc := range []struct {
		name string
		sum  func([]byte) uint16
	}{{"modbus", CRC16ModbusSum}, {"dnp", CRC16DNPSum}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				crcSink = bc.sum(data)
			}
		})
	}
}
