package coverage

import (
	"encoding/binary"
	"math/bits"
)

// Merge is MergeTracer over a whole raw map: the word-at-a-time reference
// the tests compare MergeTracer against, and a way to feed a hand-built map
// into a Virgin.
func (v *Virgin) Merge(raw []byte) bool {
	valuable := false
	seen := v.seen[:]
	i := 0
	for ; i+8 <= len(raw); i += 8 {
		w := binary.LittleEndian.Uint64(raw[i : i+8])
		if w == 0 {
			continue
		}
		sw := binary.LittleEndian.Uint64(seen[i : i+8])
		novel := classifyWord(w) &^ sw
		if novel == 0 {
			continue
		}
		valuable = true
		for b := 0; b < 64; b += 8 {
			if byte(sw>>b) == 0 && byte(novel>>b) != 0 {
				v.edges++
			}
		}
		binary.LittleEndian.PutUint64(seen[i:i+8], sw|novel)
	}
	for ; i < len(raw); i++ {
		c := raw[i]
		if c == 0 {
			continue
		}
		b := bucket(c)
		if seen[i]&b == 0 {
			if seen[i] == 0 {
				v.edges++
			}
			seen[i] |= b
			valuable = true
		}
	}
	return valuable
}

// AppendEdges appends the indices of the edges (non-zero bytes) lit in the
// current map to dst and returns it, walking only dirty lines in ascending
// index order: the reference for the edge list Virgin.Consume appends.
func (t *Tracer) AppendEdges(dst []uint16) []uint16 {
	for wi, w := range t.dirty {
		for ; w != 0; w &= w - 1 {
			base := wi<<(dirtyShift+6) + bits.TrailingZeros64(w)<<dirtyShift
			for i := base; i < base+(1<<dirtyShift); i += 8 {
				lw := binary.LittleEndian.Uint64(t.buf[i : i+8])
				if lw == 0 {
					continue
				}
				for b := 0; b < 64; b += 8 {
					if byte(lw>>b) != 0 {
						dst = append(dst, uint16(i+b/8))
					}
				}
			}
		}
	}
	return dst
}

// AccumulateTracer folds one execution's footprint into the counters: every
// edge lit in the tracer's live map gains one, saturating. It is the
// reference for the accumulation Virgin.Consume does when given a
// HitCounts.
func (h *HitCounts) AccumulateTracer(t *Tracer) {
	h.execs++
	for wi, w := range t.dirty {
		for ; w != 0; w &= w - 1 {
			base := wi<<(dirtyShift+6) + bits.TrailingZeros64(w)<<dirtyShift
			for i := base; i < base+(1<<dirtyShift); i += 8 {
				lw := binary.LittleEndian.Uint64(t.buf[i : i+8])
				if lw == 0 {
					continue
				}
				for b := 0; b < 64; b += 8 {
					if byte(lw>>b) != 0 {
						if c := &h.counts[i+b/8]; *c != ^uint32(0) {
							*c++
						}
					}
				}
			}
		}
	}
}
