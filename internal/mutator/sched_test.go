package mutator

import (
	"testing"

	"repro/internal/datamodel"
	"repro/internal/rng"
)

// TestPickGoldenStream pins Pick's exact RNG consumption and selection
// order: one Intn draw over the applicable count, scanned in suite order.
// The expected sequence was recorded from the pre-scheduler implementation;
// any change to it silently breaks the adaptive-off bit-for-bit
// compatibility guarantee (Config.Adaptive off must replay historical
// campaigns exactly), so a diff here is a compatibility break, not a test
// to update casually.
func TestPickGoldenStream(t *testing.T) {
	want := []string{
		"NumberRandom", "BlobExpand", "NumberDeltaFromDefault", "BlobBitFlip",
		"NumberEdgeCase", "BlobRandom", "NumberEdgeCase", "BlobTruncate",
		"NumberEdgeCase", "BlobBitFlip", "NumberEdgeCase", "BlobBitFlip",
		"NumberEdgeCase", "BlobExpand", "NumberEdgeCase", "BlobExpand",
		"NumberRandom", "BlobRandom", "NumberRandom", "BlobExpand",
		"NumberEdgeCase", "BlobTruncate", "NumberRandom", "BlobTruncate",
	}
	r := rng.New(42)
	suite := Suite()
	for i, name := range want {
		var m Mutator
		if i%2 == 0 {
			m = Pick(r, suite, num(2))
		} else {
			m = Pick(r, suite, vblob(0, 8))
		}
		if m == nil || m.Name() != name {
			got := "<nil>"
			if m != nil {
				got = m.Name()
			}
			t.Fatalf("draw %d: Pick = %s, golden stream has %s — Pick's RNG stream changed", i, got, name)
		}
	}
}

// TestPickWeightedDeterministic: a fixed RNG state yields a fixed pick.
func TestPickWeightedDeterministic(t *testing.T) {
	suite := Suite()
	weights := []uint32{200, 16, 40, 100, 16, 30, 256, 16}
	var first []int
	for trial := 0; trial < 2; trial++ {
		r := rng.New(7)
		var got []int
		for i := 0; i < 200; i++ {
			m, idx := NewTable(suite).PickWeighted(r, vblob(0, 8), weights)
			if m == nil || idx < 0 || suite[idx] != m {
				t.Fatalf("draw %d: m=%v idx=%d", i, m, idx)
			}
			got = append(got, idx)
		}
		if trial == 0 {
			first = got
			continue
		}
		for i := range got {
			if got[i] != first[i] {
				t.Fatalf("draw %d: %d vs %d across identical RNG states", i, got[i], first[i])
			}
		}
	}
}

// TestPickWeightedFollowsWeights: a heavily skewed weight table shifts the
// draw distribution accordingly, but the floor-weighted cold operator is
// still drawn — the scheduler's starvation guarantee lives or dies here.
func TestPickWeightedFollowsWeights(t *testing.T) {
	r := rng.New(9)
	suite := Suite()
	c := vblob(0, 8)
	// Weight every applicable blob mutator at the floor except one at
	// floor+span — the live scheduler's most extreme legal table.
	weights := make([]uint32, len(suite))
	hot := -1
	for i, m := range suite {
		if !m.Kinds().Has(c.Kind) {
			continue
		}
		weights[i] = 16
		if hot < 0 {
			hot = i
			weights[i] = 256
		}
	}
	counts := make(map[int]int)
	const draws = 4000
	for i := 0; i < draws; i++ {
		_, idx := NewTable(suite).PickWeighted(r, c, weights)
		counts[idx]++
	}
	// hot carries 256 of 304 total weight ≈ 84%; each cold one ≈ 5%.
	if counts[hot] < draws/2 {
		t.Fatalf("hot mutator drawn %d/%d, want the majority", counts[hot], draws)
	}
	for i, m := range suite {
		if !m.Kinds().Has(c.Kind) || i == hot {
			continue
		}
		if counts[i] == 0 {
			t.Fatalf("floor-weighted mutator %s starved over %d draws", m.Name(), draws)
		}
	}
}

// TestPickWeightedNilUniform: nil weights mean weight 1 everywhere — a
// uniform draw over the applicable set, like Pick (though on a different
// RNG stream).
func TestPickWeightedNilUniform(t *testing.T) {
	r := rng.New(21)
	suite := Suite()
	c := num(2)
	counts := make(map[int]int)
	const draws = 3000
	for i := 0; i < draws; i++ {
		m, idx := NewTable(suite).PickWeighted(r, c, nil)
		if m == nil || !m.Kinds().Has(c.Kind) {
			t.Fatal("nil-weights draw returned inapplicable mutator")
		}
		counts[idx]++
	}
	// Three applicable number mutators: each should land near draws/3.
	if len(counts) != 3 {
		t.Fatalf("drew %d distinct mutators, want 3", len(counts))
	}
	for idx, n := range counts {
		if n < draws/6 {
			t.Fatalf("mutator %d drawn %d/%d, far from uniform", idx, n, draws)
		}
	}
}

// TestPickWeightedZeroTotalFallsBack: an all-zero weight table degrades to
// the uniform draw instead of dividing by zero or returning nil.
func TestPickWeightedZeroTotalFallsBack(t *testing.T) {
	r := rng.New(5)
	suite := Suite()
	c := num(2)
	weights := make([]uint32, len(suite))
	seen := make(map[int]bool)
	for i := 0; i < 500; i++ {
		m, idx := NewTable(suite).PickWeighted(r, c, weights)
		if m == nil || !m.Kinds().Has(c.Kind) {
			t.Fatal("zero-total draw returned inapplicable mutator")
		}
		seen[idx] = true
	}
	if len(seen) != 3 {
		t.Fatalf("zero-total fallback drew %d distinct mutators, want all 3 applicable", len(seen))
	}
}

// TestPickWeightedInapplicable: a chunk no mutator handles returns
// (nil, -1) and consumes no RNG value.
func TestPickWeightedInapplicable(t *testing.T) {
	r := rng.New(3)
	before := r.Uint64()
	r = rng.New(3)
	m, idx := NewTable(Suite()).PickWeighted(r, datamodel.Blk("x", num(1)), nil)
	if m != nil || idx != -1 {
		t.Fatalf("block draw = (%v, %d), want (nil, -1)", m, idx)
	}
	if r.Uint64() != before {
		t.Fatal("inapplicable draw consumed an RNG value")
	}
}

// TestPickWeightedPartialWeights: entries past the end of a short weights
// slice default to 1, so a caller may size its table to a prefix of the
// suite without panicking or starving the tail.
func TestPickWeightedPartialWeights(t *testing.T) {
	r := rng.New(31)
	suite := Suite()
	c := vblob(0, 8)
	seen := make(map[int]bool)
	for i := 0; i < 2000; i++ {
		m, idx := NewTable(suite).PickWeighted(r, c, []uint32{1})
		if m == nil || !m.Kinds().Has(c.Kind) {
			t.Fatal("short-weights draw returned inapplicable mutator")
		}
		seen[idx] = true
	}
	if len(seen) != 4 {
		t.Fatalf("short-weights draw reached %d mutators, want all 4 applicable blobs", len(seen))
	}
}
