package crash

import (
	"fmt"
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/mem"
)

// This file is the crash bank's side of the campaign-checkpoint seam.
// Records are written in sorted fault-identity (RecordKey) order — not
// discovery order, which can tie across merged workers — so the encoding
// is canonical and the round-trip golden test holds byte for byte.
// Reproducer journals (Sequence/SeqStarts) travel with their records: a
// warm-restarted campaign can still replay every banked crash against a
// fresh target.

// Snapshot writes the bank's full state through the checkpoint codec.
func (b *Bank) Snapshot(w *checkpoint.Writer) {
	b.mu.Lock()
	defer b.mu.Unlock()
	keys := make([]string, 0, len(b.byKey))
	for k := range b.byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.Int(len(keys))
	for _, k := range keys {
		r := b.byKey[k]
		w.String(string(r.Kind))
		w.String(r.Site)
		w.Blob(r.Example)
		w.Int(r.Count)
		w.Int(r.FirstExec)
		w.U64(r.PathSig)
		// A nil Sequence (in-process fault; single-packet reproducer) is
		// semantically distinct from an empty one, so its presence gets an
		// explicit marker.
		w.Bool(r.Sequence != nil)
		if r.Sequence != nil {
			w.Int(len(r.Sequence))
			for _, p := range r.Sequence {
				w.Blob(p)
			}
			w.Int(len(r.SeqStarts))
			for _, s := range r.SeqStarts {
				w.Int(s)
			}
		}
	}
	w.Int(b.hangs)
	w.Int(len(b.hangOrder))
	for _, h := range b.hangOrder {
		w.Int(h.Budget)
		w.Blob(h.Prefix)
		w.Int(h.Count)
	}
}

// Restore overwrites the bank with a Snapshot-produced dump. Duplicate
// fault identities and out-of-range session boundaries fail the restore.
func (b *Bank) Restore(r *checkpoint.Reader) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.byKey = make(map[string]*Record)
	b.hangs = 0
	b.hangByKey = nil
	b.hangOrder = nil

	n := r.Count()
	for i := 0; i < n && r.Err() == nil; i++ {
		rec := &Record{}
		rec.Kind = mem.FaultKind(r.String())
		rec.Site = r.String()
		rec.Example = r.Blob()
		rec.Count = r.Int()
		rec.FirstExec = r.Int()
		rec.PathSig = r.U64()
		if r.Bool() {
			ns := r.Count()
			rec.Sequence = make([][]byte, 0, ns)
			for j := 0; j < ns && r.Err() == nil; j++ {
				rec.Sequence = append(rec.Sequence, r.Blob())
			}
			nb := r.Count()
			for j := 0; j < nb && r.Err() == nil; j++ {
				s := r.Int()
				if r.Err() == nil && s > len(rec.Sequence) {
					return fmt.Errorf("crash: session boundary %d beyond sequence length %d", s, len(rec.Sequence))
				}
				rec.SeqStarts = append(rec.SeqStarts, s)
			}
		}
		if r.Err() != nil {
			break
		}
		k := RecordKey(rec)
		if _, dup := b.byKey[k]; dup {
			return fmt.Errorf("crash: duplicate record %q", k)
		}
		b.byKey[k] = rec
	}

	b.hangs = r.Int()
	nh := r.Count()
	for i := 0; i < nh && r.Err() == nil; i++ {
		h := &HangRecord{Budget: r.Int(), Prefix: r.Blob(), Count: r.Int()}
		if r.Err() != nil {
			break
		}
		if b.hangByKey == nil {
			b.hangByKey = make(map[string]*HangRecord)
		}
		k := string(h.Prefix)
		if _, dup := b.hangByKey[k]; dup {
			return fmt.Errorf("crash: duplicate hang class %q", k)
		}
		b.hangByKey[k] = h
		b.hangOrder = append(b.hangOrder, h)
	}
	return r.Err()
}
