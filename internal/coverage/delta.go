package coverage

import (
	"encoding/binary"
	"fmt"

	"repro/internal/checkpoint"
)

// This file implements the campaign-bitmap delta codec used by the network
// fleet transport (internal/fleetnet). A Virgin accumulator is monotonic —
// words only ever gain bits — so the state a peer is missing is exactly the
// set of 64-bit words that changed since the last exchange. A sender keeps a
// shadow Virgin per peer (the state it last sent); AppendVirginDelta encodes
// only the differing words and brings the shadow up to date, so steady-state
// sync windows ship a handful of words instead of the 64 KiB map.
//
// Wire format, written and read through the repo's one binary codec
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

// AppendVirginDelta appends to dst an encoding of every bitmap word of cur
// that differs from shadow, ORs those words into shadow (bringing it up to
// date, edge counter included), and returns the extended buffer. With an
// all-zero shadow it encodes cur's full observed state; with a shadow that
// has caught up it encodes an empty delta (one zero byte).
func AppendVirginDelta(dst []byte, cur, shadow *Virgin) []byte {
	cs, ss := cur.seen[:], shadow.seen[:]
	count := 0
	for i := 0; i < MapSize; i += 8 {
		if binary.LittleEndian.Uint64(cs[i:i+8]) != binary.LittleEndian.Uint64(ss[i:i+8]) {
			count++
		}
	}
	var tmp [binary.MaxVarintLen64]byte
	dst = append(dst, tmp[:binary.PutUvarint(tmp[:], uint64(count))]...)
	prev := 0
	for wi := 0; wi < virginWords; wi++ {
		i := wi * 8
		cw := binary.LittleEndian.Uint64(cs[i : i+8])
		sw := binary.LittleEndian.Uint64(ss[i : i+8])
		if cw == sw {
			continue
		}
		dst = append(dst, tmp[:binary.PutUvarint(tmp[:], uint64(wi-prev))]...)
		prev = wi
		dst = append(dst, tmp[:8]...)
		binary.LittleEndian.PutUint64(dst[len(dst)-8:], cw)
		// Catch the shadow up, keeping its edge counter truthful. The
		// accumulator is monotonic, so sw is a subset of cw and the novel
		// bits are exactly cw &^ sw.
		novel := cw &^ sw
		for b := 0; b < 64; b += 8 {
			if byte(sw>>b) == 0 && byte(novel>>b) != 0 {
				shadow.edges++
			}
		}
		binary.LittleEndian.PutUint64(ss[i:i+8], cw)
	}
	return dst
}

// ApplyDelta ORs an AppendVirginDelta encoding into the accumulator,
// maintaining the edge counter exactly as MergeVirgin would. It reports
// whether any previously unseen (edge, bucket) state arrived, and rejects
// malformed input (truncated entries, a count larger than the bytes that
// follow, out-of-range or non-ascending indices, trailing bytes) without
// partial effects being rolled back —
// callers treat an error as a broken peer and drop the connection.
func (v *Virgin) ApplyDelta(frame []byte) (changed bool, err error) {
	r := checkpoint.NewReader(frame)
	wi := 0
	for k, count := 0, r.Count(); k < count; k++ {
		gap, w := r.Int(), r.U64()
		if r.Err() != nil {
			break
		}
		if k > 0 && gap == 0 {
			return changed, fmt.Errorf("coverage: delta entry %d: non-ascending index", k)
		}
		if gap >= virginWords-wi {
			return changed, fmt.Errorf("coverage: delta entry %d: word index out of range", k)
		}
		wi += gap
		i := wi * 8
		vw := binary.LittleEndian.Uint64(v.seen[i : i+8])
		novel := w &^ vw
		if novel == 0 {
			continue
		}
		changed = true
		for b := 0; b < 64; b += 8 {
			if byte(vw>>b) == 0 && byte(novel>>b) != 0 {
				v.edges++
			}
		}
		binary.LittleEndian.PutUint64(v.seen[i:i+8], vw|novel)
	}
	if err := r.Finish(); err != nil {
		return changed, fmt.Errorf("coverage: delta: %w", err)
	}
	return changed, nil
}
