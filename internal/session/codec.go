package session

import (
	"encoding/binary"
	"fmt"

	"repro/internal/checkpoint"
)

// codecVersion is the sequence wire-format version. The version byte
// leads every encoded sequence so corpus journals and fleetnet frames
// written by newer engines stay recognizable (and rejectable) by older
// ones, and so the format can evolve without a flag day.
const codecVersion = 1

// maxDecodeSteps bounds decoded sequences; it is far above any walk the
// engine generates and exists only to stop a hostile length prefix from
// allocating unbounded memory.
const maxDecodeSteps = 1 << 16

// Encode appends the versioned binary encoding of s to dst and returns
// the extended slice. Layout: version byte, uvarint step count, then per
// step uvarint state, uvarint action, uvarint payload length, payload.
func Encode(dst []byte, s Sequence) []byte {
	dst = append(dst, codecVersion)
	dst = binary.AppendUvarint(dst, uint64(len(s.Steps)))
	for _, st := range s.Steps {
		dst = binary.AppendUvarint(dst, uint64(st.State))
		dst = binary.AppendUvarint(dst, uint64(st.Action))
		dst = binary.AppendUvarint(dst, uint64(len(st.Data)))
		dst = append(dst, st.Data...)
	}
	return dst
}

// Decode parses an Encode-produced buffer through the repo's one binary
// codec (internal/checkpoint). Payload slices are copied out of data, so
// the caller may recycle the input. Unknown versions, truncated or
// oversized inputs, and non-minimal varint encodings (the codec is
// canonical: Decode accepts exactly what Encode emits, which keeps corpus
// dedup by byte signature honest) return an error.
func Decode(data []byte) (Sequence, error) {
	if len(data) == 0 {
		return Sequence{}, fmt.Errorf("session: empty sequence encoding")
	}
	if data[0] != codecVersion {
		return Sequence{}, fmt.Errorf("session: unknown sequence codec version %d", data[0])
	}
	r := checkpoint.NewReader(data[1:])
	n := r.Count()
	if n > maxDecodeSteps {
		return Sequence{}, fmt.Errorf("session: step count %d exceeds limit", n)
	}
	steps := make([]Step, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		st := Step{State: r.Int(), Action: r.Int(), Data: r.Blob()}
		if st.State > maxDecodeSteps || st.Action > maxDecodeSteps {
			return Sequence{}, fmt.Errorf("session: step %d: index out of range", i)
		}
		steps = append(steps, st)
	}
	if err := r.Finish(); err != nil {
		return Sequence{}, fmt.Errorf("session: %w", err)
	}
	return Sequence{Steps: steps}, nil
}
