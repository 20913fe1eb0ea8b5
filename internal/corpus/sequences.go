package corpus

// Sequences ride the corpus as ordinary puzzles under a reserved
// signature namespace, so the whole journal/sync/compaction machinery
// (and the fleetnet wire format) carries them with zero new plumbing: a
// sequence entry's Data is the versioned session codec encoding, its
// Signature is SeqSignature(stateModel). The namespace prefix contains a
// NUL byte, which no datamodel rule signature does ("num(...)",
// "blk(...)" — printable), so sequence entries can never collide with
// donor material or be returned by Donors.
const seqSigPrefix = "seq\x00"

// SeqSignature returns the corpus signature under which the named state
// model's sequences are stored.
func SeqSignature(stateModel string) string { return seqSigPrefix + stateModel }

// AddSequence stores one encoded sequence for the named state model,
// returning true if it was new. Exact duplicates dedup; the per-signature
// bound applies, evicting the oldest sequence.
func (c *Corpus) AddSequence(stateModel string, encoded []byte) bool {
	return c.Add(Puzzle{Signature: SeqSignature(stateModel), Data: encoded, Model: stateModel})
}
