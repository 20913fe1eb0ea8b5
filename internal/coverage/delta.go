package coverage

import (
	"encoding/binary"
	"fmt"
	mbits "math/bits"

	"repro/internal/checkpoint"
)

// This file is the Virgin bitmap's one sparse-word codec, shared by the
// network fleet transport (internal/fleetnet) and the campaign checkpoint.
// A Virgin accumulator is monotonic — words only ever gain bits — so the
// state a peer is missing is exactly the set of 64-bit words that changed
// since the last exchange. A sender keeps a shadow Virgin per peer (the
// state it last sent) and a Cursor into its change log; WriteDelta finds
// and encodes only the changed words and brings the shadow up to date, so
// a steady-state window ships a handful of words, not the 64 KiB map. A
// checkpoint is the same encoding against an all-zero shadow (Snapshot),
// read back into an empty accumulator (Restore).
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

// word returns the 64-bit word of seen at byte offset i.
func word(seen *[MapSize]byte, i int) uint64 { return binary.LittleEndian.Uint64(seen[i:]) }

// WriteDelta writes every bitmap word of v that differs from shadow and
// ORs those words into shadow, bringing it up to date, edge counter
// included. It compares only the words v's change log names past from,
// the cursor the previous WriteDelta into this shadow returned (or the
// zero Cursor), and returns the next one; every other word is equal as
// long as shadow gains nothing v lacks. A nil shadow stands for an
// all-zero one, which no logged word equals, and is not updated: the
// write is then v's full observed state. With a shadow that has caught
// up it writes an empty delta (one zero byte).
func (v *Virgin) WriteDelta(w *checkpoint.Writer, shadow *Virgin, from Cursor) Cursor {
	log, next := v.log, Cursor{}
	if shadow != nil {
		log, next = v.tail(from, shadow)
	}
	if len(log) == 0 {
		w.Int(0)
		return next
	}
	var set [virginWords / 64]uint64 // word numbers: sorted, no repeats
	for _, i := range log {
		set[i>>9] |= 1 << (i >> 3 & 63)
	}
	count := 0
	for k := range set {
		for bits := set[k]; shadow != nil && bits != 0; bits &= bits - 1 {
			b := mbits.TrailingZeros64(bits)
			if i := (k<<6 | b) * 8; word(&v.seen, i) == word(&shadow.seen, i) {
				set[k] &^= 1 << b
			}
		}
		count += mbits.OnesCount64(set[k])
	}
	w.Int(count)
	prev := 0
	for k, bits := range &set {
		for ; bits != 0; bits &= bits - 1 {
			wi := k<<6 | mbits.TrailingZeros64(bits)
			cw := word(&v.seen, wi*8)
			w.Int(wi - prev)
			w.U64(cw)
			prev = wi
			if shadow != nil {
				shadow.or(wi*8, word(&shadow.seen, wi*8), cw)
			}
		}
	}
	return next
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
// old|w, counting each edge byte that turns non-zero and logging each
// byte that gains a bit.
func (v *Virgin) or(i int, old, w uint64) {
	novel := w &^ old
	for b := 0; b < 64; b += 8 {
		if byte(novel>>b) != 0 {
			if byte(old>>b) == 0 {
				v.edges++
			}
			v.log = append(v.log, uint16(i+b/8))
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
