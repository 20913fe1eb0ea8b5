package dnp3

import "repro/internal/checkpoint"

// StateFields implements executor.StateCheckpointer: transport and
// application sequence state, the point banks, the select-before-operate
// latch, and the extended-type state including the octet-string store and
// class assignments.
func (o *Outstation) StateFields() []checkpoint.Field {
	octet := checkpoint.WordCodec[byte]()
	return []checkpoint.Field{
		checkpoint.Uint(&o.addr),
		checkpoint.Uint(&o.seq),
		checkpoint.Uint(&o.appSeq),
		checkpoint.Bools(o.binaries[:]),
		checkpoint.Bools(o.outputs[:]),
		checkpoint.Uints(o.counters[:]),
		checkpoint.Uints(o.analogs[:]),
		checkpoint.U64(&o.clock),
		checkpoint.Bool(&o.selected),
		checkpoint.Uint(&o.selectedIndex),
		checkpoint.Uint(&o.selectedCode),
		checkpoint.Bools(o.unsolEnabled[:]),
		checkpoint.Int(&o.restarts),
		checkpoint.Uints(o.ext.frozen[:]),
		checkpoint.Map(&o.ext.octet, checkpoint.IntCodec, checkpoint.BlobCodec),
		checkpoint.Bool(&o.ext.deviceRestart),
		checkpoint.Map(&o.ext.classAssign, octet, octet),
	}
}
