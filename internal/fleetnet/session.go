package fleetnet

import (
	"repro/internal/corpus"
	"repro/internal/coverage"
	"repro/internal/crash"
)

// peerSession is the per-peer sync bookkeeping one node keeps about one
// remote: everything needed to turn full-state exchange into deltas. The
// protocol is symmetric — an inbound connection and an uplink, whatever
// the shapes of the nodes at either end, keep exactly the same three
// pieces of state — so it lives in one struct used by both directions:
//
//   - shadow: the coverage the remote is known to hold (what we sent plus
//     what it sent us); outgoing bitmap deltas are computed against it.
//   - localCursor + journalID: the read position in the *local* shared
//     journal (everything below it has crossed this link) and the
//     registration that pins journal compaction no further than it.
//   - remoteCursor: the resumable read position in the *remote's* journal.
//     A node with several peers holds one per link — the vector of cursors
//     that replaces PR 3's single hubCursor.
//   - sentCrash: per-fault watermarks of the highest Count the remote is
//     known to hold, so crash records are only re-sent when they grow.
//
// All fields are owned by the goroutine driving the link (the hub handler
// or the uplink's driving loop); methods that touch the shared state must
// be called under the SyncState lock (inside an Exchange).
type peerSession struct {
	shadow *coverage.Virgin
	// journalID is this link's RegisterPeer id in the local shared
	// journal; -1 until registered.
	journalID int
	// localCursor is the absolute position in the local journal up to
	// which the remote is caught up.
	localCursor int
	// remoteCursor is the absolute position in the remote's journal this
	// node has consumed — the cursor sent in sync frames. It survives
	// reconnects and session resets: it indexes remote state, and the
	// remote downgrades a stale cursor to a full replay by itself.
	remoteCursor int
	// sentCrash maps fault keys to the highest Count the remote is known
	// to hold.
	sentCrash map[string]int
	// echoSpans are absolute [start,end) spans of the local journal that
	// were absorbed *from* this peer and must never be pushed back to it.
	// A span is recorded only when concurrent appends (other sessions,
	// local workers) landed between localCursor and the absorbed block —
	// otherwise the cursor steps straight over it — and is dropped as soon
	// as the cursor passes it, so the list stays at most one window deep.
	echoSpans [][2]int
}

func newPeerSession() *peerSession {
	return &peerSession{
		shadow:    coverage.NewVirgin(),
		journalID: -1,
		sentCrash: make(map[string]int),
	}
}

// register declares the remote a consumer of the local journal starting at
// cursor (clamped into the live journal by RegisterPeer), so compaction
// never drops entries the link still has to deliver. No-op when already
// registered. Must run under the state lock.
func (s *peerSession) register(corp *corpus.Corpus, cursor int) {
	if s.journalID >= 0 {
		return
	}
	s.journalID = corp.RegisterPeer(cursor)
	if cursor > s.localCursor {
		s.localCursor = cursor
	}
}

// unregister releases the journal registration (link teardown), so a dead
// peer never pins compaction. Must run under the state lock.
func (s *peerSession) unregister(corp *corpus.Corpus) {
	if s.journalID < 0 {
		return
	}
	corp.DropPeer(s.journalID)
	s.journalID = -1
}

// sendDelta builds the outgoing half of one sync window under the state
// lock: every coverage word the remote is not known to hold (folded into
// the shadow as sent) and the local journal tail past localCursor, minus
// the spans that arrived from this very peer. The cursor and the journal
// registration advance to the journal end.
func (s *peerSession) sendDelta(virgin *coverage.Virgin, corp *corpus.Corpus) (virginDelta []byte, puzzles []corpus.Puzzle) {
	virginDelta = coverage.AppendVirginDelta(nil, virgin, s.shadow)
	from := s.localCursor
	// Index arithmetic only holds while the cursor is inside the live
	// journal; outside it ReadJournal serves a full signature-ordered
	// replay, where echo skipping is meaningless (and duplicates dedup on
	// the remote anyway).
	indexed := from >= corp.JournalBase() && from <= corp.JournalLen()
	idx := from
	corp.ReadJournal(from, func(p corpus.Puzzle) {
		if !indexed || !s.inEchoSpan(idx) {
			puzzles = append(puzzles, p)
		}
		idx++
	})
	if !indexed {
		// The cursor pointed outside the live journal — below the
		// compaction horizon, or minted by a previous incarnation of this
		// state (an acceptor restarted with everything lost) — so the read
		// above was a full replay and the only honest resume point is the
		// live end, which may be BELOW a stale cursor. Without this
		// rewind, a beyond-the-end cursor would be echoed back forever and
		// every window would degrade to a full replay instead of one.
		s.localCursor = corp.JournalLen()
	}
	s.advanceLocal(corp, corp.JournalLen())
	return virginDelta, puzzles
}

// absorbDelta folds the incoming half of a window into the shared state
// under the state lock: coverage into the union and the shadow (the remote
// holds what it sent), puzzles into the corpus — remembering the journal
// span they landed in so they are never echoed back over this link — and
// crash records into the bank, raising the watermarks.
func (s *peerSession) absorbDelta(virginDelta []byte, puzzles []corpus.Puzzle, records []*crash.Record,
	virgin *coverage.Virgin, corp *corpus.Corpus, bank *crash.Bank) error {
	if _, err := virgin.ApplyDelta(virginDelta); err != nil {
		return err
	}
	if _, err := s.shadow.ApplyDelta(virginDelta); err != nil {
		return err
	}
	pre := corp.JournalLen()
	for _, p := range puzzles {
		corp.Absorb(p)
	}
	if post := corp.JournalLen(); post > pre {
		if s.localCursor == pre {
			// Nothing interleaved since our last journal read: step the
			// cursor straight over the remote's material.
			s.advanceLocal(corp, post)
		} else {
			// Concurrent appends sit between the cursor and this block;
			// remember the block so the next tail read skips exactly the
			// absorbed entries and nothing else.
			s.echoSpans = append(s.echoSpans, [2]int{pre, post})
		}
	}
	for _, r := range records {
		bank.Absorb(r)
		if key := crash.RecordKey(r); r.Count > s.sentCrash[key] {
			s.sentCrash[key] = r.Count
		}
	}
	return nil
}

// crashDelta returns the records whose local count exceeds the remote's
// watermark, raising the watermarks to the returned counts. (Optimistic:
// if the window then fails in transport, resetWire rewinds the watermarks
// and everything is re-sent — Absorb merges idempotently.)
func (s *peerSession) crashDelta(records []*crash.Record) []*crash.Record {
	var out []*crash.Record
	for _, r := range records {
		key := crash.RecordKey(r)
		if sent, ok := s.sentCrash[key]; !ok || r.Count > sent {
			s.sentCrash[key] = r.Count
			out = append(out, r)
		}
	}
	return out
}

// advanceLocal moves the local read cursor (never backwards), keeps the
// journal registration with it, and drops echo spans the cursor has
// passed. Must run under the state lock.
func (s *peerSession) advanceLocal(corp *corpus.Corpus, cursor int) {
	if cursor > s.localCursor {
		s.localCursor = cursor
	}
	corp.AdvancePeer(s.journalID, s.localCursor)
	keep := s.echoSpans[:0]
	for _, span := range s.echoSpans {
		if span[1] > s.localCursor {
			keep = append(keep, span)
		}
	}
	s.echoSpans = keep
}

func (s *peerSession) inEchoSpan(idx int) bool {
	for _, span := range s.echoSpans {
		if idx >= span[0] && idx < span[1] {
			return true
		}
	}
	return false
}

// resetWire rewinds everything that described the lost connection: the
// replacement session's far side may not remember this link, so the shadow,
// local cursor, watermarks and echo spans go back to zero and everything is
// re-sent (merging idempotently). remoteCursor and the journal registration
// deliberately survive — the cursor indexes remote state the remote itself
// validates, and the registration keeps compaction honest until the link is
// explicitly closed.
func (s *peerSession) resetWire() {
	s.shadow = coverage.NewVirgin()
	s.localCursor = 0
	s.sentCrash = make(map[string]int)
	s.echoSpans = nil
}
