package modbus

import "repro/internal/checkpoint"

// StateFields implements sandbox.StateCheckpointer. Everything a packet can
// mutate and a later packet can observe is listed: the four data banks, the
// simulated heap with its seeded-bug bookkeeping, the diagnostic flags, and
// the file-record storage. Without it a warm-restarted campaign would fuzz a
// factory-fresh server while the uninterrupted one fuzzes a worn one — and
// state-dependent faults (the event-buffer use-after-free, the diagnostics
// double-free) would fire differently.
func (s *Server) StateFields() []checkpoint.Field {
	fields := []checkpoint.Field{
		checkpoint.Bools(s.coils[:]),
		checkpoint.Bools(s.discrete[:]),
		checkpoint.Uints(s.holding[:]),
		checkpoint.Uints(s.input[:]),
		s.heap,
		checkpoint.Uint(&s.eventBuf),
		checkpoint.Bool(&s.eventsFreed),
		checkpoint.Uint(&s.eventCount),
		checkpoint.Bool(&s.listenOnly),
	}
	for f := range s.files {
		fields = append(fields, checkpoint.Uints(s.files[f][:]))
	}
	return append(fields, checkpoint.Blob(&s.lastResponse))
}
