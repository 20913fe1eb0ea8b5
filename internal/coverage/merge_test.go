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
