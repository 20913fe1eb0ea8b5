package mutator

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/datamodel"
	"repro/internal/rng"
)

func num(width int) *datamodel.Chunk { return datamodel.Num("n", width, 7) }
func blob(size int) *datamodel.Chunk { return datamodel.Bytes("b", size, []byte{1, 2, 3, 4}) }
func vblob(min, max int) *datamodel.Chunk {
	return datamodel.BytesVar("b", min, max, []byte{1, 2, 3, 4})
}

func TestNumberRandomWidth(t *testing.T) {
	r := rng.New(1)
	m := NumberRandom{}
	for _, w := range []int{1, 2, 4, 8} {
		out := m.Mutate(r, num(w), nil, nil)
		if len(out) != w {
			t.Fatalf("width %d: got %d bytes", w, len(out))
		}
	}
}

func TestNumberRandomRespectsLegalMostly(t *testing.T) {
	r := rng.New(2)
	c := datamodel.Num("n", 2, 1).WithLegal(10, 20)
	m := NumberRandom{}
	legal, illegal := 0, 0
	for i := 0; i < 1000; i++ {
		v := decode(m.Mutate(r, c, nil, nil), c)
		if v == 10 || v == 20 {
			legal++
		} else {
			illegal++
		}
	}
	if legal < 700 {
		t.Fatalf("legal draws = %d/1000, expected dominant", legal)
	}
	if illegal == 0 {
		t.Fatal("mutator should occasionally violate the legal set")
	}
}

func TestNumberEdgeCaseTruncated(t *testing.T) {
	r := rng.New(3)
	m := NumberEdgeCase{}
	for i := 0; i < 200; i++ {
		out := m.Mutate(r, num(1), nil, nil)
		if len(out) != 1 {
			t.Fatal("width 1 edge case must be 1 byte")
		}
	}
}

func TestNumberDeltaUsesPrev(t *testing.T) {
	r := rng.New(4)
	m := NumberDeltaFromDefault{}
	c := num(4)
	prev := encode(nil, 1000, c)
	for i := 0; i < 100; i++ {
		v := decode(m.Mutate(r, c, prev, nil), c)
		if v < 1000-16 || v > 1000+16 {
			t.Fatalf("delta mutation out of range: %d", v)
		}
		if v == 1000 {
			t.Fatal("delta must change the value")
		}
	}
}

func TestBlobRandomSizes(t *testing.T) {
	r := rng.New(5)
	m := BlobRandom{}
	for i := 0; i < 100; i++ {
		out := m.Mutate(r, vblob(2, 10), nil, nil)
		if len(out) < 2 || len(out) > 10 {
			t.Fatalf("size %d out of [2,10]", len(out))
		}
	}
	if len(m.Mutate(r, blob(6), nil, nil)) != 6 {
		t.Fatal("fixed blob must keep its size under BlobRandom")
	}
}

func TestStringRandomPrintable(t *testing.T) {
	r := rng.New(6)
	m := BlobRandom{}
	c := datamodel.Str("s", 32, "")
	out := m.Mutate(r, c, nil, nil)
	for _, b := range out {
		if b < '!' || b > '~' {
			t.Fatalf("non-printable byte %02x in string mutation", b)
		}
	}
}

func TestBitFlipChangesSomething(t *testing.T) {
	r := rng.New(7)
	m := BlobBitFlip{}
	prev := []byte{0, 0, 0, 0}
	diff := false
	for i := 0; i < 20; i++ {
		out := m.Mutate(r, blob(4), prev, nil)
		if len(out) != 4 {
			t.Fatalf("bit flip changed length: %d", len(out))
		}
		if !bytes.Equal(out, prev) {
			diff = true
		}
	}
	if !diff {
		t.Fatal("bit flips never changed the payload")
	}
}

func TestBitFlipDoesNotMutateInput(t *testing.T) {
	r := rng.New(8)
	m := BlobBitFlip{}
	prev := []byte{1, 2, 3, 4}
	orig := append([]byte(nil), prev...)
	m.Mutate(r, blob(4), prev, nil)
	if !bytes.Equal(prev, orig) {
		t.Fatal("mutator modified caller's slice")
	}
}

func TestExpandGrows(t *testing.T) {
	r := rng.New(9)
	m := BlobExpand{}
	out := m.Mutate(r, vblob(0, 0), []byte{1, 2, 3}, nil)
	if len(out) <= 3 {
		t.Fatalf("expand produced %d bytes", len(out))
	}
}

func TestExpandRespectsMaxSize(t *testing.T) {
	r := rng.New(10)
	m := BlobExpand{}
	for i := 0; i < 50; i++ {
		out := m.Mutate(r, vblob(0, 12), []byte{1, 2, 3, 4, 5, 6}, nil)
		if len(out) > 12 {
			t.Fatalf("expand exceeded MaxSize: %d", len(out))
		}
	}
}

func TestTruncateShrinks(t *testing.T) {
	r := rng.New(11)
	m := BlobTruncate{}
	for i := 0; i < 50; i++ {
		out := m.Mutate(r, vblob(0, 0), []byte{1, 2, 3, 4, 5}, nil)
		if len(out) >= 5 {
			t.Fatalf("truncate produced %d bytes", len(out))
		}
	}
}

func TestTruncateEmptyPrevAndDefaults(t *testing.T) {
	r := rng.New(12)
	m := BlobTruncate{}
	c := &datamodel.Chunk{Name: "b", Kind: datamodel.Blob, Size: datamodel.Variable}
	if out := m.Mutate(r, c, nil, nil); len(out) != 0 {
		t.Fatalf("truncate of empty default = %d bytes", len(out))
	}
}

func TestSuiteApplicability(t *testing.T) {
	suite := Suite()
	nApplies, bApplies := 0, 0
	for _, m := range suite {
		if m.Kinds().Has(datamodel.Number) {
			nApplies++
		}
		if m.Kinds().Has(datamodel.Blob) {
			bApplies++
		}
		if m.Kinds().Has(datamodel.Block) {
			t.Fatalf("%s applies to a block", m.Name())
		}
	}
	if nApplies != 3 || bApplies != 4 {
		t.Fatalf("applicability: numbers %d blobs %d", nApplies, bApplies)
	}
}

func TestPickReturnsApplicable(t *testing.T) {
	r := rng.New(13)
	suite := Suite()
	for i := 0; i < 100; i++ {
		m := Pick(r, suite, num(2))
		if m == nil || !m.Kinds().Has(datamodel.Number) {
			t.Fatal("Pick returned inapplicable mutator")
		}
	}
	if Pick(r, suite, datamodel.Blk("x", num(1))) != nil {
		t.Fatal("Pick on block should be nil")
	}
}

func TestNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range Suite() {
		if seen[m.Name()] {
			t.Fatalf("duplicate mutator name %s", m.Name())
		}
		seen[m.Name()] = true
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	f := func(v uint64, w uint8, little bool) bool {
		width := int(w%8) + 1
		c := &datamodel.Chunk{Kind: datamodel.Number, Width: width}
		if little {
			c.Endian = datamodel.Little
		}
		masked := v & mask(width)
		return decode(encode(nil, masked, c), c) == masked
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMutatorsDeterministicUnderSeed(t *testing.T) {
	for _, m := range Suite() {
		var c *datamodel.Chunk
		if m.Kinds().Has(datamodel.Number) {
			c = num(4)
		} else {
			c = vblob(1, 16)
		}
		a := m.Mutate(rng.New(99), c, []byte{5, 6, 7, 8}, nil)
		b := m.Mutate(rng.New(99), c, []byte{5, 6, 7, 8}, nil)
		if !bytes.Equal(a, b) {
			t.Fatalf("%s not deterministic under fixed seed", m.Name())
		}
	}
}
