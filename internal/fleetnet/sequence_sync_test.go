package fleetnet

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/coverage"
	"repro/internal/crash"
	"repro/internal/session"
	"repro/internal/targets/iec104"
)

// seqPool reads the stored sequences for one state model out of a shared
// sync state, deep-copied so assertions outlive the exchange.
func seqPool(state *core.SyncState, name string) [][]byte {
	var out [][]byte
	state.Exchange(core.ExchangeFunc(func(_ *coverage.Virgin, corp *corpus.Corpus, _ *crash.Bank) error {
		for _, p := range corp.Puzzles(corpus.SeqSignature(name)) {
			out = append(out, append([]byte(nil), p.Data...))
		}
		return nil
	}))
	return out
}

// injectSequence plants one encoded sequence in a shared state's corpus,
// the way a session worker's merge window would.
func injectSequence(state *core.SyncState, name string, enc []byte) {
	state.Exchange(core.ExchangeFunc(func(_ *coverage.Virgin, corp *corpus.Corpus, _ *crash.Bank) error {
		corp.AddSequence(name, enc)
		return nil
	}))
}

// TestSequenceSyncLossless pins the wire v3 claim: session-sequence corpus
// entries cross a hub-leaf link bit-for-bit in both directions, arriving
// under the reserved signature namespace and still decoding to legal walks
// of the state model — the whole journey is opaque puzzle relay, no
// sequence-aware code on the wire path.
func TestSequenceSyncLossless(t *testing.T) {
	sm := iec104.IEC104StateModel()
	mkSeq := func(fill byte) []byte {
		seq := session.Sequence{Steps: []session.Step{
			{State: 0, Action: 0, Data: []byte{0x68, 0x04, 0x07, 0x00, 0x00, 0x00}},
			{State: 1, Action: 2, Data: bytes.Repeat([]byte{fill}, 14)},
			{State: 1, Action: 7, Data: []byte{0x68, 0x04, 0x01, 0x00, 0x02, 0x00}},
		}}
		if err := legalWalk(sm, seq); err != nil {
			t.Fatalf("test sequence is not a legal walk: %v", err)
		}
		return session.Encode(nil, seq)
	}

	state := core.NewSyncState(0)
	fleet, tgt := newLeafFleet(t, 31, 0)
	hub := startHub(t, state, tgt.Models())
	leaf := newTestLeaf(t, fleet, tgt, hub.Addr(), "seq-leaf")

	// Push: a sequence retained by the leaf's session campaign reaches the
	// hub on the next sync window.
	pushed := mkSeq(0xA5)
	injectSequence(fleet.State(), sm.Name, pushed)
	if err := leaf.Sync(); err != nil {
		t.Fatal(err)
	}
	hubSeqs := seqPool(state, sm.Name)
	if len(hubSeqs) != 1 || !bytes.Equal(hubSeqs[0], pushed) {
		t.Fatalf("hub sequences after push = %x, want exactly %x", hubSeqs, pushed)
	}

	// Pull: a sequence another leaf contributed comes back down intact.
	pulled := mkSeq(0x3C)
	injectSequence(state, sm.Name, pulled)
	if err := leaf.Sync(); err != nil {
		t.Fatal(err)
	}
	got := seqPool(fleet.State(), sm.Name)
	if len(got) != 2 {
		t.Fatalf("leaf has %d sequences after pull, want 2", len(got))
	}
	for _, enc := range got {
		if !bytes.Equal(enc, pushed) && !bytes.Equal(enc, pulled) {
			t.Fatalf("leaf sequence %x matches neither original", enc)
		}
		seq, err := session.Decode(enc)
		if err != nil {
			t.Fatalf("synced sequence does not decode: %v", err)
		}
		if err := legalWalk(sm, seq); err != nil {
			t.Fatalf("synced sequence is not a legal walk: %v", err)
		}
	}

	// The reserved namespace survived the trip: the entries are stored
	// under the sequence signature, invisible to donor lookups.
	state.Exchange(core.ExchangeFunc(func(_ *coverage.Virgin, corp *corpus.Corpus, _ *crash.Bank) error {
		for _, p := range corp.Puzzles(corpus.SeqSignature(sm.Name)) {
			if p.Signature != corpus.SeqSignature(sm.Name) {
				t.Errorf("synced sequence stored under non-reserved signature %q", p.Signature)
			}
		}
		return nil
	}))
}

// legalWalk reports whether s is a walk of sm from its initial state: every
// step's indices in range and sent from the state the walk is in.
func legalWalk(sm *session.StateModel, s session.Sequence) error {
	cur := sm.Initial
	for i, st := range s.Steps {
		if st.State != cur || st.State < 0 || st.State >= len(sm.States) {
			return fmt.Errorf("step %d sent from state %d, walk is in state %d", i, st.State, cur)
		}
		acts := sm.States[st.State].Actions
		if st.Action < 0 || st.Action >= len(acts) {
			return fmt.Errorf("step %d action %d out of range for state %d", i, st.Action, st.State)
		}
		cur = acts[st.Action].Next
	}
	return nil
}
