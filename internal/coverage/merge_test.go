package coverage

import (
	"encoding/binary"

	"repro/internal/checkpoint"
)

// Merge is MergeTracer over a whole raw map: the word-at-a-time reference
// the tests compare MergeTracer against, and a way to feed a hand-built map
// into a Virgin. It writes through or and mergeEdge, so the change log
// names what it set.
func (v *Virgin) Merge(raw []byte) bool {
	valuable := false
	i := 0
	for ; i+8 <= len(raw); i += 8 {
		w := binary.LittleEndian.Uint64(raw[i : i+8])
		if w == 0 {
			continue
		}
		sw := word(&v.seen, i)
		if novel := classifyWord(w) &^ sw; novel != 0 {
			valuable = true
			v.or(i, sw, novel)
		}
	}
	for ; i < len(raw); i++ {
		if raw[i] != 0 && v.mergeEdge(uint16(i), bucket(raw[i])) {
			valuable = true
		}
	}
	return valuable
}

// denseMergeVirgin is MergeVirgin as it was before the change log, a scan
// of every word of the map: the reference the log walk is held to. It
// writes seen and the edge counter directly and logs nothing.
func denseMergeVirgin(v, o *Virgin) bool {
	changed := false
	for i := 0; i < MapSize; i += 8 {
		vw := word(&v.seen, i)
		if novel := word(&o.seen, i) &^ vw; novel != 0 {
			changed = true
			v.denseOr(i, vw, novel)
		}
	}
	return changed
}

// denseWriteDelta is WriteDelta as the scan of every word of the map:
// each word of v that differs from shadow (nil: all zero), ORed into
// shadow without logging.
func denseWriteDelta(w *checkpoint.Writer, v, shadow *Virgin) {
	ss := &[MapSize]byte{}
	if shadow != nil {
		ss = &shadow.seen
	}
	count := 0
	for i := 0; i < MapSize; i += 8 {
		if word(&v.seen, i) != word(ss, i) {
			count++
		}
	}
	w.Int(count)
	prev := 0
	for wi := 0; wi < virginWords; wi++ {
		i := wi * 8
		cw, sw := word(&v.seen, i), word(ss, i)
		if cw == sw {
			continue
		}
		w.Int(wi - prev)
		w.U64(cw)
		prev = wi
		if shadow != nil {
			shadow.denseOr(i, sw, cw)
		}
	}
}

// denseOr is or without the log.
func (v *Virgin) denseOr(i int, old, w uint64) {
	novel := w &^ old
	for b := 0; b < 64; b += 8 {
		if byte(old>>b) == 0 && byte(novel>>b) != 0 {
			v.edges++
		}
	}
	binary.LittleEndian.PutUint64(v.seen[i:i+8], old|novel)
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
