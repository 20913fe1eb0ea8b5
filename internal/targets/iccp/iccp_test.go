package iccp

import (
	"testing"

	"repro/internal/executor"
	"repro/internal/mem"
	"repro/internal/targets"
)

// tpkt wraps a COTP payload in TPKT framing.
func tpkt(cotp []byte) []byte {
	total := 4 + len(cotp)
	out := []byte{0x03, 0x00, byte(total >> 8), byte(total)}
	return append(out, cotp...)
}

// dt builds a COTP data-transfer PDU around an MMS PDU.
func dt(mms []byte) []byte {
	return tpkt(append([]byte{2, cotpDT, 0x80}, mms...))
}

// mmsPDU assembles tag + length + body.
func mmsPDU(tag byte, body []byte) []byte {
	return append([]byte{tag, byte(len(body))}, body...)
}

// connect is the COTP connection request packet.
var connect = tpkt([]byte{6, cotpCR, 0x00, 0x00, 0x00, 0x00, 0x00})

// initiatePDU builds a valid initiate-request with the given AP title.
func initiatePDU(ap string) []byte {
	body := []byte{0x00, 0x01, 0x04, 0x00, byte(len(ap))}
	body = append(body, ap...)
	return dt(mmsPDU(tagInitiate, body))
}

// confirmedPDU builds a confirmed-request for a service.
func confirmedPDU(svc byte, rest ...byte) []byte {
	body := append([]byte{0x00, 0x01, svc}, rest...)
	return dt(mmsPDU(tagConfirmed, body))
}

// associate brings a fresh server to the associated state.
func associate(r *executor.InProc) {
	r.Run(connect)
	r.Run(initiatePDU("CLI"))
}

func TestRegistered(t *testing.T) {
	tgt, err := targets.New("libiccp")
	if err != nil {
		t.Fatal(err)
	}
	if tgt.Name() != "libiccp" {
		t.Fatalf("name = %s", tgt.Name())
	}
	if len(tgt.Models()) != 12 {
		t.Fatalf("models = %d", len(tgt.Models()))
	}
}

func TestModelsSelfConsistent(t *testing.T) {
	for _, m := range ICCPModels() {
		pkt := m.Generate().Bytes()
		if _, err := m.Crack(pkt); err != nil {
			t.Fatalf("model %s round trip: %v", m.Name, err)
		}
	}
}

func TestAssociationLifecycle(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	// Data before COTP connect: dropped.
	r.Run(dt(mmsPDU(tagInitiate, []byte{0x00, 0x01, 0x04, 0x00, 0x00})))
	if s.associated {
		t.Fatal("associated without COTP connection")
	}
	r.Run(connect)
	r.Run(initiatePDU("CLIENT1"))
	if !s.associated {
		t.Fatal("initiate did not associate")
	}
	r.Run(dt(mmsPDU(tagConclude, []byte{0})))
	if s.associated {
		t.Fatal("conclude did not end association")
	}
}

func TestInitiateValidation(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	r.Run(connect)
	// Wrong protocol version.
	body := []byte{0x00, 0x09, 0x04, 0x00, 0x03, 'A', 'B', 'C'}
	r.Run(dt(mmsPDU(tagInitiate, body)))
	if s.associated {
		t.Fatal("wrong version accepted")
	}
	// Max PDU too small.
	body = []byte{0x00, 0x01, 0x00, 0x10, 0x03, 'A', 'B', 'C'}
	r.Run(dt(mmsPDU(tagInitiate, body)))
	if s.associated {
		t.Fatal("tiny max PDU accepted")
	}
}

func TestConfirmedRequiresAssociation(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	r.Run(connect)
	r.Run(confirmedPDU(svcRead, 3, 'a', 'b', 'c'))
	// No crash, no effect: the read bug is unreachable pre-association.
	if s.associated {
		t.Fatal("state corrupted")
	}
}

func TestSeededSEGVInitiate(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	r.Run(connect)
	// apLen=16 but only 2 AP bytes present.
	body := []byte{0x00, 0x01, 0x04, 0x00, 16, 'A', 'B'}
	res, _ := r.Run(dt(mmsPDU(tagInitiate, body)))
	if res.Outcome != executor.Crash || res.Fault.Kind != mem.SEGV {
		t.Fatalf("res = %v fault = %+v", res.Outcome, res.Fault)
	}
}

func TestSeededSEGVRead(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	associate(r)
	// nameLen=20 with a 3-byte name.
	res, _ := r.Run(confirmedPDU(svcRead, 20, 'a', 'b', 'c'))
	if res.Outcome != executor.Crash || res.Fault.Kind != mem.SEGV {
		t.Fatalf("res = %v fault = %+v", res.Outcome, res.Fault)
	}
}

func TestSeededSEGVNamedList(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	associate(r)
	// count=4 with a single 4-byte element.
	res, _ := r.Run(confirmedPDU(svcDefineNamedList, 4, 0x30, 0, 0, 1))
	if res.Outcome != executor.Crash || res.Fault.Kind != mem.SEGV {
		t.Fatalf("res = %v fault = %+v", res.Outcome, res.Fault)
	}
}

func TestSeededHeapOverflowWrite(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	associate(r)
	name := "Bilateral_Table_ID"
	rest := []byte{byte(len(name))}
	rest = append(rest, name...)
	value := make([]byte, 40) // > 32-byte server buffer
	rest = append(rest, byte(len(value)))
	rest = append(rest, value...)
	res, _ := r.Run(confirmedPDU(svcWrite, rest...))
	if res.Outcome != executor.Crash || res.Fault.Kind != mem.HeapBufferOverflow {
		t.Fatalf("res = %v fault = %+v", res.Outcome, res.Fault)
	}
}

func TestFourDistinctFaultSites(t *testing.T) {
	// The four seeded bugs must dedup to four distinct sites with the
	// Table I kind split: 3 SEGV + 1 heap-buffer-overflow.
	segv, overflow := map[string]bool{}, map[string]bool{}
	crashers := [][]byte{
		dt(mmsPDU(tagInitiate, []byte{0x00, 0x01, 0x04, 0x00, 16, 'A'})),
		confirmedPDU(svcRead, 20, 'a'),
		confirmedPDU(svcDefineNamedList, 4, 0x30, 0, 0, 1),
	}
	name := "Bilateral_Table_ID"
	w := []byte{byte(len(name))}
	w = append(w, name...)
	w = append(w, 40)
	w = append(w, make([]byte, 40)...)
	crashers = append(crashers, confirmedPDU(svcWrite, w...))
	for _, pkt := range crashers {
		s := New()
		r := executor.NewInProc(s)
		associate(r)
		res, _ := r.Run(pkt)
		if res.Outcome != executor.Crash {
			t.Fatalf("packet %x did not crash", pkt)
		}
		switch res.Fault.Kind {
		case mem.SEGV:
			segv[res.Fault.Site] = true
		case mem.HeapBufferOverflow:
			overflow[res.Fault.Site] = true
		default:
			t.Fatalf("unexpected kind %s", res.Fault.Kind)
		}
	}
	if len(segv) != 3 || len(overflow) != 1 {
		t.Fatalf("segv sites = %d overflow sites = %d", len(segv), len(overflow))
	}
}

func TestWriteValidPath(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	associate(r)
	name := "DSConditions_Detect"
	rest := []byte{byte(len(name))}
	rest = append(rest, name...)
	rest = append(rest, 2, 0xAA, 0xBB)
	if res, _ := r.Run(confirmedPDU(svcWrite, rest...)); res.Outcome != executor.OK {
		t.Fatalf("valid write crashed: %v", res.Fault)
	}
	v := s.table[name]
	if len(v) != 2 || v[0] != 0xAA {
		t.Fatalf("table value = %x", v)
	}
}

func TestWriteUnknownVariable(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	associate(r)
	rest := []byte{3, 'x', 'y', 'z', 1, 0x01}
	if res, _ := r.Run(confirmedPDU(svcWrite, rest...)); res.Outcome != executor.OK {
		t.Fatalf("unknown-name write crashed: %v", res.Fault)
	}
}

func TestDefineTransferSetValid(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	associate(r)
	res, _ := r.Run(confirmedPDU(svcDefineNamedList, 2, 0x30, 0, 0, 1, 0x30, 0, 0, 2))
	if res.Outcome != executor.OK {
		t.Fatalf("valid transfer set crashed: %v", res.Fault)
	}
	if s.transferSets != 1 {
		t.Fatalf("transfer sets = %d", s.transferSets)
	}
}

func TestGetNameListScopes(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	associate(r)
	for _, rest := range [][]byte{
		{0},
		{1, 4, 'I', 'C', 'C', '1'},
		{1, 3, 'x', 'y', 'z'},
		{9},
		{1, 9, 'a'}, // domain length beyond payload: checked path
	} {
		if res, _ := r.Run(confirmedPDU(svcGetNameList, rest...)); res.Outcome != executor.OK {
			t.Fatalf("get-name-list %x crashed: %v", rest, res.Fault)
		}
	}
}

func TestMalformedFramingSafe(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	r.Run(connect)
	for _, pkt := range [][]byte{
		nil,
		{0x03},
		{0x04, 0x00, 0x00, 0x07, 2, cotpDT, 0x80}, // bad TPKT version
		{0x03, 0x00, 0x00, 0x99, 2, cotpDT, 0x80}, // bad TPKT length
		tpkt([]byte{0}),                        // COTP header too short
		tpkt([]byte{99, cotpDT, 0x80}),         // COTP header beyond packet
		dt([]byte{}),                           // empty MMS
		dt([]byte{tagConfirmed}),               // tag without length
		dt(mmsPDU(tagConfirmed, []byte{0x00})), // confirmed too short
		dt(mmsPDU(0x55, []byte{1, 2, 3})),      // unknown tag
	} {
		if res, _ := r.Run(pkt); res.Outcome != executor.OK {
			t.Fatalf("malformed packet crashed: %x -> %v", pkt, res.Fault)
		}
	}
}

func TestModelDefaultsReachDeepServices(t *testing.T) {
	// Replaying each model's default instance in order must reach the
	// associated state and exercise every service without crashing.
	s := New()
	r := executor.NewInProc(s)
	models := ICCPModels()
	for _, m := range models {
		if res, _ := r.Run(m.Generate().Bytes()); res.Outcome == executor.Crash {
			t.Fatalf("default %s crashed: %v", m.Name, res.Fault)
		}
	}
	// The Conclude model tears the association down; re-initiating must
	// bring it back, confirming the default instances drive the state
	// machine end to end.
	r.Run(models[1].Generate().Bytes())
	if !s.associated {
		t.Fatal("default Initiate instance did not associate")
	}
}
