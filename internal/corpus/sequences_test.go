package corpus

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/datamodel"
	"repro/internal/session"
)

func TestSeqSignatureNamespace(t *testing.T) {
	sig := SeqSignature("iec104")
	if !strings.HasPrefix(sig, seqSigPrefix) {
		t.Fatalf("SeqSignature not recognized")
	}
	// No datamodel rule signature may land in the namespace.
	chunks := []*datamodel.Chunk{
		{Name: "n", Kind: datamodel.Number, Width: 2},
		{Name: "b", Kind: datamodel.Blob, Size: datamodel.Variable, MinSize: 0, MaxSize: 8},
		{Name: "s", Kind: datamodel.String, Size: 4},
	}
	for _, ch := range chunks {
		if strings.HasPrefix(datamodel.RuleSignature(ch), seqSigPrefix) {
			t.Fatalf("rule signature %q collides with sequence namespace", datamodel.RuleSignature(ch))
		}
	}
}

func TestAddSequenceDedupAndBound(t *testing.T) {
	c := New(4)
	enc := session.Encode(nil, session.Sequence{Steps: []session.Step{{Data: []byte("x")}}})
	if !c.AddSequence("sm", enc) {
		t.Fatalf("first add rejected")
	}
	if c.AddSequence("sm", enc) {
		t.Fatalf("duplicate accepted")
	}
	for i := 0; i < 10; i++ {
		seq := session.Sequence{Steps: []session.Step{{Data: []byte(fmt.Sprintf("p%d", i))}}}
		c.AddSequence("sm", session.Encode(nil, seq))
	}
	if got := len(c.Puzzles(SeqSignature("sm"))); got != 4 {
		t.Fatalf("per-signature bound not applied: %d", got)
	}
}

// TestSequencesRideJournalSync: sequence entries must flow through the
// incremental journal exactly like donor puzzles — including a peer that
// attaches mid-campaign with a saved mark — and decode losslessly on the
// far side.
func TestSequencesRideJournalSync(t *testing.T) {
	src := New(0)
	dst := New(0)
	seqA := session.Sequence{Steps: []session.Step{{State: 0, Action: 0, Data: []byte{0x68, 0x04, 0x07, 0, 0, 0}}}}
	src.AddSequence("iec104", session.Encode(nil, seqA))
	mark := 0
	added, mark := merge(dst, src, mark)
	if added != 1 {
		t.Fatalf("first window added %d", added)
	}
	// Mid-sync: more sequences land, the peer resumes from its mark.
	seqB := session.Sequence{Steps: []session.Step{
		{State: 0, Action: 0, Data: []byte("start")},
		{State: 1, Action: 2, Data: []byte("deep")},
	}}
	src.AddSequence("iec104", session.Encode(nil, seqB))
	added, _ = merge(dst, src, mark)
	if added != 1 {
		t.Fatalf("second window added %d", added)
	}
	got := dst.Puzzles(SeqSignature("iec104"))
	if len(got) != 2 {
		t.Fatalf("dst holds %d sequences, want 2", len(got))
	}
	dec, err := session.Decode(got[1].Data)
	if err != nil {
		t.Fatalf("synced sequence does not decode: %v", err)
	}
	if len(dec.Steps) != 2 || !bytes.Equal(dec.Steps[1].Data, []byte("deep")) {
		t.Fatalf("synced sequence lost content: %+v", dec)
	}
	// Donor lookups must never surface sequence entries.
	ch := &datamodel.Chunk{Name: "n", Kind: datamodel.Number, Width: 2}
	for _, p := range dst.Donors(ch) {
		if strings.HasPrefix(p.Signature, seqSigPrefix) {
			t.Fatalf("sequence entry leaked into donor list")
		}
	}
}
