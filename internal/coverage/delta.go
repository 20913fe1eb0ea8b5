package coverage

import (
	"encoding/binary"
	"fmt"

	"repro/internal/checkpoint"
)

// This file is the Virgin bitmap's one sparse-word codec, shared by the
// network fleet transport (internal/fleetnet) and the campaign checkpoint.
// A Virgin accumulator is monotonic — words only ever gain bits — so the
// state a peer is missing is exactly the set of 64-bit words that changed
// since the last exchange. A sender keeps a shadow Virgin per peer (the
// state it last sent); WriteDelta encodes only the differing words and
// brings the shadow up to date, so steady-state sync windows ship a
// handful of words instead of the 64 KiB map. A checkpoint is the same
// encoding against an all-zero shadow (Snapshot), read back into an empty
// accumulator (Restore).
//
// Format, written and read through the repo's one binary codec
// (internal/checkpoint; all integers canonical uvarints unless noted):
//
//	count            number of word entries
//	count × {
//	  gap            word-index delta from the previous entry (absolute
//	                 index for the first entry); entries are strictly
//	                 ascending
//	  word           8 bytes little-endian, the sender's full word
//	}
//
// Words are OR-combined on apply, so deltas are idempotent and may be
// re-sent after a reconnect without corrupting the receiver.

// virginWords is the Virgin bitmap size in 64-bit words.
const virginWords = MapSize / 8

// word returns the 64-bit word of seen at byte offset i; a nil seen is
// all zero.
func word(seen *[MapSize]byte, i int) uint64 {
	if seen == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(seen[i:])
}

// WriteDelta writes every bitmap word of v that differs from shadow and
// ORs those words into shadow, bringing it up to date, edge counter
// included. A nil shadow stands for an all-zero one and is not updated:
// the write is then v's full observed state. With a shadow that has
// caught up it writes an empty delta (one zero byte).
func (v *Virgin) WriteDelta(w *checkpoint.Writer, shadow *Virgin) {
	cs := &v.seen
	var ss *[MapSize]byte
	if shadow != nil {
		ss = &shadow.seen
	}
	count := 0
	for i := 0; i < MapSize; i += 8 {
		if word(cs, i) != word(ss, i) {
			count++
		}
	}
	w.Int(count)
	prev := 0
	for wi := 0; wi < virginWords; wi++ {
		i := wi * 8
		cw, sw := word(cs, i), word(ss, i)
		if cw == sw {
			continue
		}
		w.Int(wi - prev)
		w.U64(cw)
		prev = wi
		if ss != nil {
			shadow.or(i, sw, cw)
		}
	}
}

// readDelta ORs one WriteDelta encoding into the accumulator, keeping the
// edge counter exact, and reports whether any previously unseen (edge,
// bucket) state arrived. Indices must be strictly ascending and in range.
func (v *Virgin) readDelta(r *checkpoint.Reader) (changed bool, err error) {
	wi := 0
	for k, count := 0, r.Count(); k < count; k++ {
		gap, w := r.Int(), r.U64()
		if r.Err() != nil {
			break
		}
		if k > 0 && gap == 0 {
			return changed, fmt.Errorf("word entry %d: non-ascending index", k)
		}
		if gap >= virginWords-wi {
			return changed, fmt.Errorf("word entry %d: index out of range", k)
		}
		wi += gap
		i := wi * 8
		if vw := word(&v.seen, i); w&^vw != 0 {
			changed = true
			v.or(i, vw, w)
		}
	}
	return changed, r.Err()
}

// or sets the word at byte offset i, whose current value is old, to
// old|w, counting each edge byte that turns non-zero.
func (v *Virgin) or(i int, old, w uint64) {
	novel := w &^ old
	for b := 0; b < 64; b += 8 {
		if byte(old>>b) == 0 && byte(novel>>b) != 0 {
			v.edges++
		}
	}
	binary.LittleEndian.PutUint64(v.seen[i:i+8], old|novel)
}

// ApplyDelta ORs a WriteDelta encoding into the accumulator, maintaining
// the edge counter exactly as MergeVirgin would. It reports whether any
// previously unseen (edge, bucket) state arrived, and rejects malformed
// input (truncated entries, a count larger than the bytes that follow,
// out-of-range or non-ascending indices, trailing bytes) without partial
// effects being rolled back — callers treat an error as a broken peer and
// drop the connection.
func (v *Virgin) ApplyDelta(frame []byte) (changed bool, err error) {
	r := checkpoint.NewReader(frame)
	if changed, err = v.readDelta(r); err == nil {
		err = r.Finish()
	}
	if err != nil {
		return changed, fmt.Errorf("coverage: delta: %w", err)
	}
	return changed, nil
}
