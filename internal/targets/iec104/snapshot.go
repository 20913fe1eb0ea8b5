package iec104

import (
	"fmt"
	"math"

	"repro/internal/checkpoint"
)

// StateFields implements executor.StateCheckpointer: the activation flag,
// both sequence counters, the point and measurement banks, and the
// extended-type banks. Session-scoped state is captured too — a checkpoint
// is a cut of the whole campaign, mid-session wear included.
func (s *Slave) StateFields() []checkpoint.Field {
	return []checkpoint.Field{
		checkpoint.Bool(&s.started),
		checkpoint.Uint(&s.vr),
		checkpoint.Uint(&s.vs),
		checkpoint.Bools(s.points[:]),
		checkpoint.Uints(s.measured[:]),
		checkpoint.Uint(&s.lastCOT),
		checkpoint.FixedBlob(s.ext.doublePoints[:]),
		checkpoint.Slice(s.ext.floats[:], floatBits),
		checkpoint.Uints(s.ext.totals[:]),
	}
}

// floatBits stores a float32 as its bit pattern in a fixed-width 64-bit
// word.
var floatBits = checkpoint.Codec[float32]{
	Put: func(w *checkpoint.Writer, f float32) { w.U64(uint64(math.Float32bits(f))) },
	Get: func(r *checkpoint.Reader) float32 {
		bits := r.U64()
		if bits > math.MaxUint32 {
			r.Fail(fmt.Errorf("iec104: float bits %#x out of range", bits))
		}
		return math.Float32frombits(uint32(bits))
	},
}
