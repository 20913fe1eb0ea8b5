// Package corpus stores puzzles — the chunk instantiations produced by
// cracking valuable seeds (paper §IV-C, Definition 2). Puzzles are indexed
// by the construction-rule signature of the chunk they instantiated, so the
// semantic-aware generator (Algorithm 3, GETDONOR) can look up donor
// material for a chunk of any other data model that conforms to a similar
// rule (§III's cross-opcode chunk similarity).
package corpus

import (
	"bytes"
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
	// Dedup set is rebuilt by Restore from the restored store.
	seen     map[string]bool // dedup key: signature + "\x00" + data
	puzzles  int             // recounted by Restore while rebuilding the store
	inserted int             // accepted Add calls, evictions included; part of the checkpoint image
	// journal is the list of accepted puzzles in acceptance order. Sync
	// peers remember how far into a corpus's journal they have read
	// (JournalLen) and exchange only the tail (ReadJournal), making a
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
	// key is the dedup-key scratch: a lookup builds the key here, so only
	// inserting one allocates it.
	key []byte
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

// seek builds the dedup key of (sig, data) in the scratch and reports
// whether the corpus holds it — a lookup that allocates nothing.
func (c *Corpus) seek(sig string, data []byte) bool {
	c.key = append(append(append(c.key[:0], sig...), 0), data...)
	return c.seen[string(c.key)]
}

// Add stores one puzzle, returning true if it was new. Exact duplicates
// (same rule, same bytes) are dropped — repeated donation of identical
// content is the "meaningless repetition" the paper wants ruled out.
func (c *Corpus) Add(p Puzzle) bool {
	if c.seek(p.Signature, p.Data) {
		return false
	}
	c.insert(p)
	return true
}

// AddCopy is Add for a puzzle whose signature and bytes are borrowed — a
// cracker's scratch and the packet. A duplicate costs one lookup and no
// allocation. A new puzzle gets its own copy of the bytes and shares the
// signature string its rule's stored puzzles already hold. It returns the
// stored puzzle.
func (c *Corpus) AddCopy(sig, data []byte, model string) (Puzzle, bool) {
	c.key = append(append(append(c.key[:0], sig...), 0), data...)
	if c.seen[string(c.key)] {
		return Puzzle{}, false
	}
	name := string(sig)
	if list := c.bySig[string(sig)]; len(list) > 0 {
		name = list[0].Signature
	}
	p := Puzzle{Signature: name, Data: bytes.Clone(data), Model: model}
	c.insert(p)
	return p, true
}

// insert stores p, whose dedup key the scratch holds, evicting the oldest
// puzzle of its signature when the signature is full.
func (c *Corpus) insert(p Puzzle) {
	c.seen[string(c.key)] = true
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

// Puzzles returns the stored puzzles under a signature, oldest first. The
// slice is shared; callers must not modify it.
func (c *Corpus) Puzzles(sig string) []Puzzle { return c.bySig[sig] }

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
// ReadJournal's full replays ship).
//
// Remove touches only the live store (bySig and the dedup set) — never the
// acceptance journal or the registered peer cursors. A removed puzzle's
// journal entry remains exactly where it was, so an incremental reader
// resuming mid-journal still sees a well-formed tail, and replaying such an
// entry into this corpus via Absorb simply re-adds the content (its dedup
// key was forgotten with it); replaying it twice dedups the second copy, so
// replay stays idempotent.
func (c *Corpus) Remove(sig string, data []byte) bool {
	if !c.seek(sig, data) {
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
		delete(c.seen, dedupKey(sig, data))
		c.puzzles--
		return true
	}
	return false
}

// JournalLen returns the absolute length of the acceptance journal — the
// mark a sync peer records to resume reading the journal later. Marks are
// absolute positions: they stay valid across CompactJournal.
func (c *Corpus) JournalLen() int { return c.journalBase + len(c.journal) }

// JournalBase returns the absolute index of the oldest journal entry still
// held — the compaction horizon. A mark below it can no longer be resumed
// incrementally; ReadJournal falls back to a full replay of the corpus's
// current contents.
func (c *Corpus) JournalBase() int { return c.journalBase }

// ReadJournal invokes fn for every puzzle accepted at or after mark and
// returns the new mark — the export half of every sync: a local worker's
// window feeds it straight into the other corpus's Absorb, and a network
// transport encodes it as a delta. Cost is proportional to what was
// accepted since mark, not to the whole corpus. When mark falls outside
// the live journal — below the compaction horizon (a reconnecting peer
// whose cursor was compacted away), or beyond the end (a cursor minted by
// a previous incarnation of this corpus, such as a hub restarted with lost
// state) — the tail is meaningless and fn instead sees a full replay of
// the current contents in sorted signature order, which converges to the
// same corpus as replaying the lost entries would have (dropped entries
// either dedup or bounce off full signatures). Remote cursors reach this
// unvalidated, so out-of-range must degrade, never panic.
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

// Absorb stores one puzzle received from a sync peer — the import half of
// every sync, fed by the other side's ReadJournal: unseen content fills
// its signature's spare capacity and is journaled for this corpus's own
// peers, duplicates and overflow are dropped. Puzzle data is shared, not
// copied: puzzles are immutable once stored, so the slices may safely back
// both corpora. Returns true when the puzzle was new.
//
// Unlike Add, Absorb never evicts. Eviction forgets dedup keys, so an
// evicting merge between two bounded corpora would reintroduce each
// other's evicted material every round (perpetual churn) and displace
// fresh local puzzles with old remote ones; filling spare capacity keeps
// each corpus's own freshness ordering and makes repeated merges converge
// to no-ops.
func (c *Corpus) Absorb(p Puzzle) bool {
	if c.seek(p.Signature, p.Data) || len(c.bySig[p.Signature]) >= c.perSig {
		return false
	}
	c.insert(p) // the signature has room, so nothing is evicted
	return true
}

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
// old mark, RegisterPeer + the ReadJournal fallback give it a full replay
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
