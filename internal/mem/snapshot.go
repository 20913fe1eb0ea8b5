package mem

import "repro/internal/checkpoint"

// This file is the simulated heap's side of the campaign-checkpoint seam.
// A target's heap is long-lived state: allocation layout, freed flags, and
// stored bytes decide which seeded faults (use-after-free, double-free,
// overflow into red zones) an execution can reach, so a warm-restarted
// campaign must resume against the same heap wear the interrupted one had
// accumulated.

var chunkCodec = checkpoint.Codec[chunk]{
	Put: func(w *checkpoint.Writer, c chunk) {
		w.Uvarint(uint64(c.base))
		w.Uvarint(uint64(c.size))
		w.Bool(c.freed)
	},
	Get: func(r *checkpoint.Reader) chunk {
		return chunk{base: r.U32(), size: r.U32(), freed: r.Bool()}
	},
}

func (h *Heap) fields() []checkpoint.Field {
	return []checkpoint.Field{
		checkpoint.Uint(&h.next),
		checkpoint.Value(&h.chunks, checkpoint.ListCodec(chunkCodec)),
		checkpoint.Map(&h.bytes, checkpoint.WordCodec[uint32](), checkpoint.WordCodec[byte]()),
	}
}

// Snapshot writes the heap's full state through the checkpoint codec.
func (h *Heap) Snapshot(w *checkpoint.Writer) { checkpoint.SnapshotFields(w, h.fields()) }

// Restore overwrites the heap with a Snapshot-produced dump.
func (h *Heap) Restore(r *checkpoint.Reader) error { return checkpoint.RestoreFields(r, h.fields()) }
