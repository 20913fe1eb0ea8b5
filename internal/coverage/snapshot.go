package coverage

import (
	"fmt"

	"repro/internal/checkpoint"
)

// This file is the coverage layer's side of the campaign-checkpoint seam:
// Virgin and HitCounts serialize themselves through the canonical
// checkpoint codec. Both dumps are sparse — only non-zero words (Virgin)
// or non-zero counters (HitCounts) are written, in ascending index order —
// so a checkpoint costs space proportional to the coverage actually
// observed rather than to the map size, and the byte stream is canonical
// (snapshot → restore → snapshot is the identical byte string).

// Snapshot writes the accumulator's observed state in the wire delta's
// format (delta.go), against an all-zero shadow. The edge counter is
// derived state and is recomputed on restore rather than stored.
func (v *Virgin) Snapshot(w *checkpoint.Writer) { v.WriteDelta(w, nil, Cursor{}) }

// Restore overwrites the accumulator with a Snapshot-produced dump,
// recomputing the edge counter from the restored map. Word indices must be
// strictly ascending and in range.
func (v *Virgin) Restore(r *checkpoint.Reader) error {
	v.Reset()
	if _, err := v.readDelta(r); err != nil {
		return fmt.Errorf("coverage: virgin: %w", err)
	}
	return nil
}

// Snapshot writes the counter map: the accumulated execution count, the
// number of non-zero counters, then per counter an ascending uvarint edge
// index and uvarint count.
func (h *HitCounts) Snapshot(w *checkpoint.Writer) {
	w.U64(h.execs)
	n := 0
	for _, c := range h.counts {
		if c != 0 {
			n++
		}
	}
	w.Int(n)
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		w.Int(i)
		w.Uvarint(uint64(c))
	}
}

// Restore overwrites the counter map with a Snapshot-produced dump. Edge
// indices must be strictly ascending and in range, and counts must fit the
// 32-bit counters.
func (h *HitCounts) Restore(r *checkpoint.Reader) error {
	*h = HitCounts{}
	h.execs = r.U64()
	n := r.Count()
	prev := -1
	for i := 0; i < n && r.Err() == nil; i++ {
		e := r.Int()
		c := r.Uvarint()
		if r.Err() != nil {
			break
		}
		if e <= prev || e >= MapSize {
			return fmt.Errorf("coverage: hit-count edge %d out of order or range", e)
		}
		if c == 0 || c > uint64(^uint32(0)) {
			return fmt.Errorf("coverage: hit count %d for edge %d out of range", c, e)
		}
		prev = e
		h.counts[e] = uint32(c)
	}
	return r.Err()
}
