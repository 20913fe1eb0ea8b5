package iccp

import "repro/internal/checkpoint"

// StateFields implements sandbox.StateCheckpointer: the connection-stack
// flags, the simulated heap, the bilateral table, and the transfer-set
// accounting.
func (s *Server) StateFields() []checkpoint.Field {
	return []checkpoint.Field{
		checkpoint.Bool(&s.cotpConnected),
		checkpoint.Bool(&s.associated),
		s.heap,
		checkpoint.Uint(&s.valueBuf),
		checkpoint.Map(&s.table, checkpoint.StringCodec, checkpoint.BlobCodec),
		checkpoint.Int(&s.transferSets),
		checkpoint.Uint(&s.invokeID),
	}
}
