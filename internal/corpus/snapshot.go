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

// Snapshot writes the corpus's full state through the checkpoint codec.
func (c *Corpus) Snapshot(w *checkpoint.Writer) {
	w.Int(c.perSig)
	w.Int(c.inserted)
	sigs := c.Signatures()
	w.Int(len(sigs))
	for _, sig := range sigs {
		list := c.bySig[sig]
		w.String(sig)
		w.Int(len(list))
		for _, p := range list {
			w.Blob(p.Data)
			w.String(p.Model)
		}
	}
	w.Int(c.journalBase)
	w.Int(len(c.journal))
	for _, p := range c.journal {
		w.String(p.Signature)
		w.Blob(p.Data)
		w.String(p.Model)
	}
	w.Int(len(c.peerCursors))
	for _, cur := range c.peerCursors {
		// -1 (dropped slot) encodes as 0, live cursor n as n+1 — keeps
		// every value in uvarint range.
		w.Int(cur + 1)
	}
}

// Restore overwrites the corpus with a Snapshot-produced dump, rebuilding
// the dedup set and puzzle counter from the restored store. Violated
// invariants — unsorted signatures, over-capacity lists, duplicate
// (signature, bytes) pairs, a journal horizon behind its base — fail the
// restore.
func (c *Corpus) Restore(r *checkpoint.Reader) error {
	perSig := r.Int()
	inserted := r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	if perSig <= 0 {
		return fmt.Errorf("corpus: non-positive per-signature bound %d", perSig)
	}
	c.perSig = perSig
	c.inserted = inserted
	c.bySig = make(map[string][]Puzzle)
	c.seen = make(map[string]bool)
	c.puzzles = 0
	c.journal = nil
	c.journalBase = 0
	c.peerCursors = nil

	nsig := r.Count()
	prevSig := ""
	for i := 0; i < nsig && r.Err() == nil; i++ {
		sig := r.String()
		n := r.Count()
		if r.Err() != nil {
			break
		}
		if i > 0 && sig <= prevSig {
			return fmt.Errorf("corpus: signatures out of order at %q", sig)
		}
		prevSig = sig
		if n == 0 || n > c.perSig {
			return fmt.Errorf("corpus: signature %q holds %d puzzles (bound %d)", sig, n, c.perSig)
		}
		list := make([]Puzzle, 0, n)
		for j := 0; j < n && r.Err() == nil; j++ {
			p := Puzzle{Signature: sig, Data: r.Blob(), Model: r.String()}
			if r.Err() != nil {
				break
			}
			key := dedupKey(sig, p.Data)
			if c.seen[key] {
				return fmt.Errorf("corpus: duplicate puzzle under %q", sig)
			}
			c.seen[key] = true
			list = append(list, p)
			c.puzzles++
		}
		c.bySig[sig] = list
	}

	c.journalBase = r.Int()
	nj := r.Count()
	for i := 0; i < nj && r.Err() == nil; i++ {
		p := Puzzle{Signature: r.String(), Data: r.Blob(), Model: r.String()}
		if r.Err() == nil {
			c.journal = append(c.journal, p)
		}
	}

	np := r.Count()
	for i := 0; i < np && r.Err() == nil; i++ {
		cur := r.Int() - 1
		if r.Err() != nil {
			break
		}
		if cur > c.JournalLen() {
			return fmt.Errorf("corpus: peer cursor %d beyond journal length %d", cur, c.JournalLen())
		}
		c.peerCursors = append(c.peerCursors, cur)
	}
	return r.Err()
}

// Peers returns the number of peer cursor slots ever registered (live and
// dropped). The fleet restore path uses it to drop slots that belonged to
// network peers of a previous incarnation, so dead cursors do not pin the
// journal against compaction forever.
func (c *Corpus) Peers() int { return len(c.peerCursors) }
