package cs101

import "repro/internal/checkpoint"

// StateFields implements executor.StateCheckpointer: link state, the
// frame-count bit, the point and value banks, and the extended-type banks.
func (s *Slave) StateFields() []checkpoint.Field {
	return []checkpoint.Field{
		checkpoint.Bool(&s.linkReset),
		checkpoint.Bool(&s.fcb),
		checkpoint.Bools(s.points[:]),
		checkpoint.Uints(s.scaled[:]),
		checkpoint.Uints(s.setpoints[:]),
		checkpoint.Uint(&s.lastCOT),
		checkpoint.FixedBlob(s.bitext.doublePoints[:]),
		checkpoint.Uints(s.bitext.normalized[:]),
		checkpoint.Uints(s.bitext.bitstrings[:]),
		checkpoint.Bools(s.bitext.paramsActive[:]),
	}
}
