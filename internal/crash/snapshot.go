package crash

import (
	"fmt"
	"sort"

	"repro/internal/checkpoint"
)

// This file is the crash bank's side of the campaign-checkpoint seam.
// Records are written in sorted fault-identity (RecordKey) order — not
// discovery order, which can tie across merged workers — so the encoding
// is canonical and the round-trip golden test holds byte for byte.
// Reproducer journals (Sequence/SeqStarts) travel with their records: a
// warm-restarted campaign can still replay every banked crash against a
// fresh target.

// Fields lists the record's fault identity and counts in encoding order:
// a checkpointed record's head and a fleet sync frame's whole record. The
// reproducer (Sequence, SeqStarts) is not among them.
func (r *Record) Fields() []checkpoint.Field {
	return []checkpoint.Field{
		checkpoint.String(&r.Kind), checkpoint.String(&r.Site), checkpoint.Blob(&r.Example),
		checkpoint.Int(&r.Count), checkpoint.Int(&r.FirstExec), checkpoint.U64(&r.PathSig),
	}
}

// The entry codecs. A nil Sequence (in-process fault; single-packet
// reproducer) is semantically distinct from an empty one, so a record's
// reproducer follows its Fields behind a presence byte.
var (
	packetList = checkpoint.ListCodec(checkpoint.BlobCodec)
	startList  = checkpoint.ListCodec(checkpoint.IntCodec)
	recordList = checkpoint.ListCodec(checkpoint.Codec[*Record]{
		Put: func(w *checkpoint.Writer, rec *Record) {
			checkpoint.SnapshotFields(w, rec.Fields())
			w.Bool(rec.Sequence != nil)
			if rec.Sequence != nil {
				packetList.Put(w, rec.Sequence)
				startList.Put(w, rec.SeqStarts)
			}
		},
		Get: func(r *checkpoint.Reader) *Record {
			rec := &Record{}
			r.Fail(checkpoint.RestoreFields(r, rec.Fields()))
			if r.Bool() {
				rec.Sequence = append([][]byte{}, packetList.Get(r)...) // non-nil even when empty
				rec.SeqStarts = startList.Get(r)
			}
			return rec
		},
	})
	hangList = checkpoint.ListCodec(checkpoint.Codec[*HangRecord]{
		Put: func(w *checkpoint.Writer, h *HangRecord) { w.Int(h.Budget); w.Blob(h.Prefix); w.Int(h.Count) },
		Get: func(r *checkpoint.Reader) *HangRecord {
			return &HangRecord{Budget: r.Int(), Prefix: r.Blob(), Count: r.Int()}
		},
	})
)

// fields declares the checkpointed bank, its records being recs. The two
// dedup indexes are left out: Restore rebuilds them.
func (b *Bank) fields(recs *[]*Record) []checkpoint.Field {
	return []checkpoint.Field{
		checkpoint.Value(recs, recordList),
		checkpoint.Int(&b.hangs),
		checkpoint.Value(&b.hangOrder, hangList),
	}
}

// Snapshot writes the bank's full state through the checkpoint codec.
func (b *Bank) Snapshot(w *checkpoint.Writer) {
	b.mu.Lock()
	defer b.mu.Unlock()
	keys := make([]string, 0, len(b.byKey))
	for k := range b.byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	recs := make([]*Record, len(keys))
	for i, k := range keys {
		recs[i] = b.byKey[k]
	}
	checkpoint.SnapshotFields(w, b.fields(&recs))
}

// Restore overwrites the bank with a Snapshot-produced dump, then rebuilds
// its dedup indexes. Duplicate fault identities or hang classes and
// out-of-range session boundaries fail the restore.
func (b *Bank) Restore(r *checkpoint.Reader) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	var recs []*Record
	if err := checkpoint.RestoreFields(r, b.fields(&recs)); err != nil {
		return err
	}
	b.byKey = make(map[string]*Record, len(recs))
	for _, rec := range recs {
		for _, s := range rec.SeqStarts {
			if s > len(rec.Sequence) {
				return fmt.Errorf("crash: session boundary %d beyond sequence length %d", s, len(rec.Sequence))
			}
		}
		k := RecordKey(rec)
		if _, dup := b.byKey[k]; dup {
			return fmt.Errorf("crash: duplicate record %q", k)
		}
		b.byKey[k] = rec
	}
	b.hangByKey = make(map[string]*HangRecord, len(b.hangOrder))
	for _, h := range b.hangOrder {
		k := string(h.Prefix)
		if _, dup := b.hangByKey[k]; dup {
			return fmt.Errorf("crash: duplicate hang class %q", k)
		}
		b.hangByKey[k] = h
	}
	return nil
}
