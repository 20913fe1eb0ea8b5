package corpus

import (
	"fmt"

	"repro/internal/checkpoint"
)

// This file is the corpus's side of the campaign-checkpoint seam. The
// snapshot captures the live store (per-signature puzzle lists in their
// freshness order — eviction order matters), the acceptance journal with
// its compaction horizon, and the registered peer cursors, so a
// warm-restarted node resumes exactly the sync relationships it had:
// in-range cursors keep reading incrementally, and any peer of a previous
// incarnation that reconnects lands in the existing full-replay fallback.
//
// Encoding is canonical: signatures are written in sorted order, lists in
// stored order, every integer minimally — snapshot → restore → snapshot
// reproduces the identical byte string.

// PuzzleList is the corpus's one puzzle record, listed: signature, model,
// data. The fleet wire's corpus deltas and the checkpoint journal both
// carry it. The stored list writes the same record minus the signature,
// which is the map key it is listed under. A peer cursor is stored as
// cursor+1, so a dropped slot (-1) stays in uvarint range.
var (
	PuzzleList = checkpoint.ListCodec(checkpoint.Codec[Puzzle]{
		Put: func(w *checkpoint.Writer, p Puzzle) { w.String(p.Signature); storedPuzzle.Put(w, p) },
		Get: func(r *checkpoint.Reader) Puzzle {
			sig := r.String()
			p := storedPuzzle.Get(r)
			p.Signature = sig
			return p
		},
	})
	storedPuzzle = checkpoint.Codec[Puzzle]{
		Put: func(w *checkpoint.Writer, p Puzzle) { w.String(p.Model); w.Blob(p.Data) },
		Get: func(r *checkpoint.Reader) Puzzle { return Puzzle{Model: r.String(), Data: r.Blob()} },
	}
	cursorList = checkpoint.ListCodec(checkpoint.Codec[int]{
		Put: func(w *checkpoint.Writer, cur int) { w.Int(cur + 1) },
		Get: func(r *checkpoint.Reader) int { return r.Int() - 1 },
	})
)

// fields declares the checkpointed corpus. The dedup set and the puzzle
// count are left out: Restore rebuilds them from the store.
func (c *Corpus) fields() []checkpoint.Field {
	return []checkpoint.Field{
		checkpoint.Int(&c.perSig),
		checkpoint.Int(&c.inserted),
		checkpoint.Map(&c.bySig, checkpoint.StringCodec, checkpoint.ListCodec(storedPuzzle)),
		checkpoint.Int(&c.journalBase),
		checkpoint.Value(&c.journal, PuzzleList),
		checkpoint.Value(&c.peerCursors, cursorList),
	}
}

// Snapshot writes the corpus's full state through the checkpoint codec.
func (c *Corpus) Snapshot(w *checkpoint.Writer) { checkpoint.SnapshotFields(w, c.fields()) }

// Restore overwrites the corpus with a Snapshot-produced dump, then
// rebuilds the dedup set and puzzle counter from the restored store.
// Violated invariants — a non-positive bound, unsorted signatures, empty or
// over-capacity lists, duplicate (signature, bytes) pairs, a peer cursor
// beyond the journal — fail the restore.
func (c *Corpus) Restore(r *checkpoint.Reader) error {
	if err := checkpoint.RestoreFields(r, c.fields()); err != nil {
		return err
	}
	if c.perSig <= 0 {
		return fmt.Errorf("corpus: non-positive per-signature bound %d", c.perSig)
	}
	c.seen, c.puzzles = make(map[string]bool), 0
	for _, sig := range c.Signatures() {
		list := c.bySig[sig]
		if len(list) == 0 || len(list) > c.perSig {
			return fmt.Errorf("corpus: signature %q holds %d puzzles (bound %d)", sig, len(list), c.perSig)
		}
		for i := range list {
			list[i].Signature = sig
			key := dedupKey(sig, list[i].Data)
			if c.seen[key] {
				return fmt.Errorf("corpus: duplicate puzzle under %q", sig)
			}
			c.seen[key] = true
		}
		c.puzzles += len(list)
	}
	for _, cur := range c.peerCursors {
		if cur > c.JournalLen() {
			return fmt.Errorf("corpus: peer cursor %d beyond journal length %d", cur, c.JournalLen())
		}
	}
	return nil
}

// Peers returns the number of peer cursor slots ever registered (live and
// dropped). The fleet restore path uses it to drop slots that belonged to
// network peers of a previous incarnation, so dead cursors do not pin the
// journal against compaction forever.
func (c *Corpus) Peers() int { return len(c.peerCursors) }
