package coverage

import "encoding/binary"

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

// AppendEdges appends the indices of the edges (non-zero bytes) of the
// whole map to dst, ascending, and returns it: the byte-at-a-time
// reference for the edge list Virgin.Consume appends.
func (t *Tracer) AppendEdges(dst []uint16) []uint16 {
	for i, c := range t.buf {
		if c != 0 {
			dst = append(dst, uint16(i))
		}
	}
	return dst
}

// AccumulateTracer folds one execution's footprint into the counters: every
// non-zero byte of the tracer's whole map gains one, saturating. It is the
// byte-at-a-time reference for the accumulation Virgin.Consume does when
// given a HitCounts.
func (h *HitCounts) AccumulateTracer(t *Tracer) {
	h.execs++
	for i, c := range t.buf {
		if c != 0 && h.counts[i] != ^uint32(0) {
			h.counts[i]++
		}
	}
}

// classifyWord buckets all eight counters of a map word at once through
// the 16-bit LUT, four table loads per word: Merge's classifier, pinned to
// bucket() by TestClassifyWordVariantsMatchBucket.
func classifyWord(w uint64) uint64 {
	return uint64(classLUT[uint16(w)]) |
		uint64(classLUT[uint16(w>>16)])<<16 |
		uint64(classLUT[uint16(w>>32)])<<32 |
		uint64(classLUT[uint16(w>>48)])<<48
}
