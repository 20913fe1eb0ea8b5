// Package corpus stores puzzles — the chunk instantiations produced by
// cracking valuable seeds (paper §IV-C, Definition 2). Puzzles are indexed
// by the construction-rule signature of the chunk they instantiated, so the
// semantic-aware generator (Algorithm 3, GETDONOR) can look up donor
// material for a chunk of any other data model that conforms to a similar
// rule (§III's cross-opcode chunk similarity).
package corpus

import (
	"sort"

	"repro/internal/datamodel"
)

// Puzzle is one stored chunk instantiation: the bytes plus provenance.
type Puzzle struct {
	// Signature of the construction rule that produced the bytes.
	Signature string
	// Data is the wire content of the puzzle.
	Data []byte
	// Model names the data model of the seed the puzzle was cracked
	// from; the generator uses it to prefer cross-model donation.
	Model string
}

// Corpus is the puzzle store. It deduplicates exact (signature, bytes)
// pairs and bounds the number of puzzles kept per signature, evicting the
// oldest — fresher puzzles come from more recently discovered paths, which
// is the material Algorithm 3 wants.
//
// A Corpus is not safe for concurrent use; the engine owns it.
type Corpus struct {
	perSig int
	bySig  map[string][]Puzzle
	//peachstar:nosnap dedup set is rebuilt by Restore from the restored store
	seen     map[string]bool // dedup key: signature + "\x00" + data
	puzzles  int             //peachstar:nosnap recounted by Restore while rebuilding the store
	inserted int             // accepted Add calls, evictions included; part of the checkpoint image
	// journal is the list of accepted puzzles in acceptance order. Sync
	// peers remember how far into a corpus's journal they have read
	// (JournalLen) and exchange only the tail (MergeJournal), making a
	// sync window O(puzzles since last sync) instead of O(corpus). An
	// evicted puzzle's journal entry just dedups or bounces off a full
	// signature when replayed.
	//
	// The journal is logically append-only but physically compactable:
	// CompactJournal drops the prefix every registered peer has already
	// consumed, so memory on a long campaign is O(unconsumed tail), not
	// O(accepted over the campaign). journalBase is the absolute index of
	// journal[0]; all cursors (marks) are absolute, so compaction never
	// invalidates a live cursor.
	journal     []Puzzle
	journalBase int
	// peerCursors holds, per registered sync peer, the absolute journal
	// index that peer has consumed up to. -1 marks a dropped peer slot.
	peerCursors []int
}

// DefaultPerSignature bounds stored puzzles per construction rule. The
// bound keeps the donor set diverse without letting one hot rule dominate
// memory; the ablation bench sweeps it.
const DefaultPerSignature = 64

// New returns an empty corpus keeping at most perSig puzzles per rule
// signature (0 means DefaultPerSignature).
func New(perSig int) *Corpus {
	if perSig <= 0 {
		perSig = DefaultPerSignature
	}
	return &Corpus{
		perSig: perSig,
		bySig:  make(map[string][]Puzzle),
		seen:   make(map[string]bool),
	}
}

// dedupKey is the exact-duplicate identity of a puzzle: its rule signature
// plus its bytes.
func dedupKey(sig string, data []byte) string {
	return sig + "\x00" + string(data)
}

// Add stores one puzzle, returning true if it was new. Exact duplicates
// (same rule, same bytes) are dropped — repeated donation of identical
// content is the "meaningless repetition" the paper wants ruled out.
func (c *Corpus) Add(p Puzzle) bool {
	key := dedupKey(p.Signature, p.Data)
	if c.seen[key] {
		return false
	}
	c.seen[key] = true
	c.inserted++
	list := c.bySig[p.Signature]
	if len(list) >= c.perSig {
		// Evict the oldest; forget its dedup key so equivalent
		// content can return later if rediscovered.
		old := list[0]
		delete(c.seen, dedupKey(old.Signature, old.Data))
		copy(list, list[1:])
		list = list[:len(list)-1]
		c.puzzles--
	}
	c.bySig[p.Signature] = append(list, p)
	c.puzzles++
	c.journal = append(c.journal, p)
	return true
}

// AddNode cracks-and-stores convenience: stores the instantiation of one
// leaf node under its chunk's rule signature, skipping non-donatable chunks
// (tokens, relation and fixup fields — their content is recomputed or
// defines the packet type, so donating them is useless).
func (c *Corpus) AddNode(model string, n *datamodel.Node) bool {
	if !datamodel.Donatable(n.Chunk) {
		return false
	}
	data := make([]byte, len(n.Data))
	copy(data, n.Data)
	return c.Add(Puzzle{
		Signature: datamodel.RuleSignature(n.Chunk),
		Data:      data,
		Model:     model,
	})
}

// Donors returns the stored puzzles whose rule signature matches the chunk
// — the Candidates set of Algorithm 3 (GETDONOR). The returned slice is
// shared; callers must not modify the puzzles. Nil when the chunk is not
// donatable or nothing matches.
func (c *Corpus) Donors(chunk *datamodel.Chunk) []Puzzle {
	if !datamodel.Donatable(chunk) {
		return nil
	}
	return c.bySig[datamodel.RuleSignature(chunk)]
}

// CrossModelDonors returns donors whose provenance differs from the given
// model — the cross-opcode donation of §IV-D ("a valuable seed with one
// value of the opcode can be used to optimize seed generation for other
// values"). Falls back to all donors when no cross-model material exists.
// It allocates a fresh slice whenever cross-model material exists; hot
// callers use CrossModelDonorsInto with a reusable scratch slice instead.
func (c *Corpus) CrossModelDonors(chunk *datamodel.Chunk, model string) []Puzzle {
	donors, _ := c.CrossModelDonorsInto(nil, chunk, model)
	return donors
}

// CrossModelDonorsInto is CrossModelDonors filtering into a caller-owned
// scratch slice: cross-model donors are appended to dst[:0], so a caller
// that keeps the returned scratch across calls pays no allocation once the
// scratch has grown to its high-water mark (the e.cands pattern of the
// engine's semantic generator, which calls this once per leaf per round).
// donors is the result — the filtered scratch when cross-model material
// exists, otherwise the shared full donor list (read-only, like Donors) —
// and scratch is dst's possibly-grown backing to store back for the next
// call. The donors slice is valid until the corpus changes or the scratch
// is reused, whichever comes first.
func (c *Corpus) CrossModelDonorsInto(dst []Puzzle, chunk *datamodel.Chunk, model string) (donors, scratch []Puzzle) {
	all := c.Donors(chunk)
	scratch = dst[:0]
	for _, p := range all {
		if p.Model != model {
			scratch = append(scratch, p)
		}
	}
	if len(scratch) > 0 {
		return scratch, scratch
	}
	return all, scratch
}

// Remove drops the stored puzzle with the given rule signature and exact
// bytes, returning true when it was present. This is the corpus-distillation
// primitive: the scheduler removes puzzles whose source seeds fell out of
// the minimal covering set, shrinking the donor lists (and with them what
// MergeFrom-based full replays ship).
//
// Remove touches only the live store (bySig and the dedup set) — never the
// acceptance journal or the registered peer cursors. A removed puzzle's
// journal entry remains exactly where it was, so an incremental reader
// resuming mid-journal still sees a well-formed tail, and replaying such an
// entry into this corpus via Absorb simply re-adds the content (its dedup
// key was forgotten with it); replaying it twice dedups the second copy, so
// replay stays idempotent.
func (c *Corpus) Remove(sig string, data []byte) bool {
	key := dedupKey(sig, data)
	if !c.seen[key] {
		return false
	}
	list := c.bySig[sig]
	for i, p := range list {
		if string(p.Data) != string(data) { // comparison only; no allocation
			continue
		}
		copy(list[i:], list[i+1:])
		list[len(list)-1] = Puzzle{}
		if len(list) == 1 {
			delete(c.bySig, sig)
		} else {
			c.bySig[sig] = list[:len(list)-1]
		}
		delete(c.seen, key)
		c.puzzles--
		return true
	}
	return false
}

// MergeFrom folds o's puzzles into c, returning how many were new.
// Iteration is in sorted-signature order so merging is deterministic for a
// fixed pair of corpora. Puzzle data is shared, not copied: puzzles are
// immutable once stored, so the slices may safely back both corpora.
//
// Merged puzzles only fill a signature's spare capacity — unlike Add they
// never evict. Eviction forgets dedup keys, so an evicting merge between
// two bounded corpora would reintroduce each other's evicted material every
// round (perpetual churn) and displace fresh local puzzles with old remote
// ones; filling spare capacity keeps each corpus's own freshness ordering
// and makes repeated merges converge to no-ops. This is the exchange step
// of the sharded campaign runner — workers push local discoveries into the
// shared corpus and pull the other workers' material back out.
func (c *Corpus) MergeFrom(o *Corpus) int {
	added := 0
	for _, sig := range o.Signatures() {
		for _, p := range o.bySig[sig] {
			if c.addNoEvict(p) {
				added++
			}
		}
	}
	return added
}

// addNoEvict stores one puzzle only when it is unseen and its signature has
// spare capacity.
func (c *Corpus) addNoEvict(p Puzzle) bool {
	key := dedupKey(p.Signature, p.Data)
	if c.seen[key] || len(c.bySig[p.Signature]) >= c.perSig {
		return false
	}
	c.seen[key] = true
	c.inserted++
	c.bySig[p.Signature] = append(c.bySig[p.Signature], p)
	c.puzzles++
	c.journal = append(c.journal, p)
	return true
}

// JournalLen returns the absolute length of the acceptance journal — the
// mark a sync peer records to resume reading the journal later. Marks are
// absolute positions: they stay valid across CompactJournal.
func (c *Corpus) JournalLen() int { return c.journalBase + len(c.journal) }

// JournalBase returns the absolute index of the oldest journal entry still
// held — the compaction horizon. A mark below it can no longer be resumed
// incrementally; MergeJournal and ReadJournal fall back to a full replay of
// the corpus's current contents.
func (c *Corpus) JournalBase() int { return c.journalBase }

// MergeJournal folds o's puzzles accepted since mark (a previous JournalLen
// of o) into c and returns o's new journal length. Like MergeFrom it never
// evicts — deltas only fill spare signature capacity — and puzzle data is
// shared, not copied. This is the incremental form of MergeFrom used by the
// sharded campaign runner's sync windows: cost is proportional to what o
// accepted since the last window, not to the whole corpus.
//
// If mark falls outside o's live journal — below the compaction horizon
// (a reconnecting network peer whose cursor was compacted away) or beyond
// the end (a cursor issued by some previous incarnation of o, e.g. a hub
// that restarted with lost state) — the incremental tail is meaningless
// and the call degrades to MergeFrom: a full replay of o's current
// contents, which converges to the same corpus as replaying the lost
// entries would have (dropped entries either dedup or bounce off full
// signatures).
func (c *Corpus) MergeJournal(o *Corpus, mark int) (added, newMark int) {
	if mark < o.journalBase || mark > o.JournalLen() {
		return c.MergeFrom(o), o.JournalLen()
	}
	for _, p := range o.journal[mark-o.journalBase:] {
		if c.addNoEvict(p) {
			added++
		}
	}
	return added, o.JournalLen()
}

// ReadJournal invokes fn for every puzzle accepted at or after mark and
// returns the new mark — the journal-export primitive network transports
// use to encode a sync delta without touching corpus internals. Like
// MergeJournal it falls back to a full replay (current contents, sorted
// signature order) when mark falls outside the live journal: below the
// compaction horizon, or — a cursor minted by a previous incarnation of
// this corpus, such as a hub restarted with lost state — beyond the end.
// Remote cursors reach this unvalidated, so out-of-range must degrade,
// never panic.
func (c *Corpus) ReadJournal(mark int, fn func(Puzzle)) (newMark int) {
	if mark < c.journalBase || mark > c.JournalLen() {
		for _, sig := range c.Signatures() {
			for _, p := range c.bySig[sig] {
				fn(p)
			}
		}
		return c.JournalLen()
	}
	for _, p := range c.journal[mark-c.journalBase:] {
		fn(p)
	}
	return c.JournalLen()
}

// Absorb stores one puzzle received from a sync peer: unseen content fills
// its signature's spare capacity and is journaled for this corpus's own
// peers, duplicates and overflow are dropped. Never evicts (see MergeFrom
// for why evicting merges churn). Returns true when the puzzle was new.
func (c *Corpus) Absorb(p Puzzle) bool { return c.addNoEvict(p) }

// RegisterPeer declares a sync consumer of this corpus's journal, starting
// at absolute cursor (0 for a fresh peer, a saved mark for a resuming one;
// clamped into the journal's valid range). The returned id is used with
// AdvancePeer/DropPeer. CompactJournal only drops entries every registered
// peer's cursor has passed, so a registered peer's incremental reads are
// never silently invalidated.
func (c *Corpus) RegisterPeer(cursor int) int {
	if cursor < c.journalBase {
		cursor = c.journalBase
	}
	if max := c.JournalLen(); cursor > max {
		cursor = max
	}
	c.peerCursors = append(c.peerCursors, cursor)
	return len(c.peerCursors) - 1
}

// AdvancePeer records that peer id has consumed the journal up to absolute
// position cursor. Cursors never move backwards.
func (c *Corpus) AdvancePeer(id, cursor int) {
	if id < 0 || id >= len(c.peerCursors) || c.peerCursors[id] < 0 {
		return
	}
	if cursor > c.peerCursors[id] {
		c.peerCursors[id] = cursor
	}
}

// DropPeer unregisters a sync peer (a disconnected network leaf), so a dead
// consumer no longer pins the journal. If the peer later resumes with its
// old mark, RegisterPeer + the MergeJournal fallback give it a full replay
// when its tail has been compacted away.
func (c *Corpus) DropPeer(id int) {
	if id >= 0 && id < len(c.peerCursors) {
		c.peerCursors[id] = -1
	}
}

// CompactJournal drops the journal prefix that every registered peer has
// consumed and returns how many entries were dropped. With no registered
// peers it is a no-op: nothing is known about consumers, so nothing is
// provably dead. Closes the O(accepted) journal-memory growth on multi-day
// campaigns — steady-state journal size is the slowest peer's lag.
func (c *Corpus) CompactJournal() int {
	min := -1
	for _, cur := range c.peerCursors {
		if cur < 0 {
			continue // dropped slot
		}
		if min < 0 || cur < min {
			min = cur
		}
	}
	drop := min - c.journalBase
	if min < 0 || drop <= 0 {
		return 0
	}
	if drop > len(c.journal) {
		drop = len(c.journal)
	}
	// Shift in place: keeps the backing array for reuse by future appends
	// and lets the dropped entries' tails be overwritten.
	n := copy(c.journal, c.journal[drop:])
	tail := c.journal[n:]
	for i := range tail {
		tail[i] = Puzzle{} // release puzzle data held only by the prefix
	}
	c.journal = c.journal[:n]
	c.journalBase += drop
	return drop
}

// Len returns the number of stored puzzles.
func (c *Corpus) Len() int { return c.puzzles }

// Empty reports whether the corpus holds no puzzles — the engine's signal
// that the semantic-aware strategy is not yet available (§IV-A: "Initially,
// the puzzle corpus is vacant").
func (c *Corpus) Empty() bool { return c.puzzles == 0 }

// Signatures returns the stored rule signatures, sorted, for reports.
func (c *Corpus) Signatures() []string {
	out := make([]string, 0, len(c.bySig))
	for s := range c.bySig {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
