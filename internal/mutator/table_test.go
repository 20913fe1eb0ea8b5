package mutator

import (
	"testing"

	"repro/internal/datamodel"
	"repro/internal/rng"
)

// pickWeightedScan is the weighted draw as an interface scan over the
// suite — the definition Table.PickWeighted is held to: the applicable
// weights summed in suite order, one Uint64 over the total (or one Intn
// over the applicable count when every weight is 0), then the scan again.
func pickWeightedScan(r *rng.RNG, suite []Mutator, c *datamodel.Chunk, weights []uint32) (Mutator, int) {
	var total uint64
	apt := 0
	for i, m := range suite {
		if m.Kinds().Has(c.Kind) {
			apt++
			total += uint64(weightAt(weights, i))
		}
	}
	if apt == 0 {
		return nil, -1
	}
	if total == 0 {
		k := r.Intn(apt)
		for i, m := range suite {
			if m.Kinds().Has(c.Kind) {
				if k == 0 {
					return m, i
				}
				k--
			}
		}
	}
	k := r.Uint64() % total
	for i, m := range suite {
		if !m.Kinds().Has(c.Kind) {
			continue
		}
		if w := uint64(weightAt(weights, i)); k < w {
			return m, i
		} else {
			k -= w
		}
	}
	return nil, -1
}

// everyKind is one chunk of each kind, plus one out of range.
func everyKind() []*datamodel.Chunk {
	var cs []*datamodel.Chunk
	for k := datamodel.Number; k <= datamodel.Array+1; k++ {
		cs = append(cs, &datamodel.Chunk{Name: k.String(), Kind: k})
	}
	return cs
}

// TestTablePickMatchesScan: for every kind, the table's uniform draw
// returns the mutator the suite scan returns and leaves the RNG in the
// same state — the adaptive-off stream depends on it.
func TestTablePickMatchesScan(t *testing.T) {
	suite := Suite()
	tab := NewTable(suite)
	for _, c := range everyKind() {
		for seed := uint64(0); seed < 200; seed++ {
			ra, rb := rng.New(seed), rng.New(seed)
			want, got := Pick(ra, suite, c), tab.Pick(rb, c)
			if got != want {
				t.Fatalf("%s seed %d: table picked %v, scan %v", c.Kind, seed, got, want)
			}
			if ra.State() != rb.State() {
				t.Fatalf("%s seed %d: RNG state differs after the pick", c.Kind, seed)
			}
		}
	}
}

// TestTablePickWeightedMatchesScan: the same for the weighted draw, under
// nil, short, all-zero and random weight tables.
func TestTablePickWeightedMatchesScan(t *testing.T) {
	suite := Suite()
	tab := NewTable(suite)
	wr := rng.New(1)
	tables := [][]uint32{nil, {1}, make([]uint32, len(suite))}
	for i := 0; i < 20; i++ {
		w := make([]uint32, len(suite))
		for j := range w {
			w[j] = uint32(wr.Intn(300))
		}
		tables = append(tables, w)
	}
	for _, c := range everyKind() {
		for ti, weights := range tables {
			for seed := uint64(0); seed < 50; seed++ {
				ra, rb := rng.New(seed), rng.New(seed)
				wm, wi := pickWeightedScan(ra, suite, c, weights)
				gm, gi := tab.PickWeighted(rb, c, weights)
				if gm != wm || gi != wi {
					t.Fatalf("%s weights %d seed %d: table (%v, %d), scan (%v, %d)", c.Kind, ti, seed, gm, gi, wm, wi)
				}
				if ra.State() != rb.State() {
					t.Fatalf("%s weights %d seed %d: RNG state differs after the pick", c.Kind, ti, seed)
				}
			}
		}
	}
}
