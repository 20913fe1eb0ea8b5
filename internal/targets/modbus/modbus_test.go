package modbus

import (
	"testing"

	"repro/internal/coverage"
	"repro/internal/datamodel"
	"repro/internal/executor"
	"repro/internal/mem"
	"repro/internal/targets"
)

// frame builds a valid Modbus TCP frame around a PDU.
func frame(pdu []byte) []byte {
	out := make([]byte, 7+len(pdu))
	out[0], out[1] = 0x00, 0x01 // txn
	n := len(pdu) + 1
	out[4], out[5] = byte(n>>8), byte(n)
	out[6] = 0xFF // unit
	copy(out[7:], pdu)
	return out
}

func run(t *testing.T, s *Server, pkt []byte) executor.Result {
	t.Helper()
	res, _ := executor.NewInProc(s).Run(pkt)
	return res
}

func TestRegistered(t *testing.T) {
	tgt, err := targets.New("libmodbus")
	if err != nil {
		t.Fatal(err)
	}
	if tgt.Name() != "libmodbus" {
		t.Fatalf("name = %s", tgt.Name())
	}
	if len(tgt.Models()) < 10 {
		t.Fatalf("models = %d", len(tgt.Models()))
	}
}

func TestModelsGenerateAndHandleCleanly(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	for _, m := range ModbusModels() {
		pkt := m.Generate().Bytes()
		res, _ := r.Run(pkt)
		if res.Outcome == executor.Crash {
			t.Fatalf("default instance of %s crashed: %v", m.Name, res.Fault)
		}
		if _, err := m.Crack(pkt); err != nil {
			t.Fatalf("model %s cannot crack its own default: %v", m.Name, err)
		}
	}
}

func TestShortAndMalformedHeaders(t *testing.T) {
	s := New()
	for _, pkt := range [][]byte{
		nil,
		{1},
		{0, 1, 0, 0, 0, 2, 0xFF},     // 7 bytes, too short
		{0, 1, 0, 9, 0, 2, 0xFF, 3},  // bad protocol id
		{0, 1, 0, 0, 0, 99, 0xFF, 3}, // length mismatch
		{0, 1, 0, 0, 0, 1, 0xFF, 3},  // length < 2 (length mismatch too)
		frame([]byte{0x03, 0, 0, 0}), // truncated read PDU
	} {
		if res := run(t, s, pkt); res.Outcome != executor.OK {
			t.Fatalf("malformed header crashed: %x -> %v", pkt, res.Fault)
		}
	}
}

func TestReadHoldingRegisters(t *testing.T) {
	s := New()
	res := run(t, s, frame([]byte{0x03, 0x00, 0x01, 0x00, 0x02}))
	if res.Outcome != executor.OK {
		t.Fatalf("read crashed: %v", res.Fault)
	}
	resp := s.lastResponse
	// fc, byteCount=4, reg1=3, reg2=6.
	if resp[7] != 0x03 || resp[8] != 4 || resp[10] != 3 || resp[12] != 6 {
		t.Fatalf("response = %x", resp)
	}
}

func TestReadExceptionResponses(t *testing.T) {
	s := New()
	// Quantity too large -> illegal value.
	run(t, s, frame([]byte{0x03, 0x00, 0x00, 0x00, 0xFF}))
	if resp := s.lastResponse; resp[0] != 0x83 || resp[1] != exIllegalValue {
		t.Fatalf("response = %x", resp)
	}
	// Address out of range -> illegal address.
	run(t, s, frame([]byte{0x03, 0xFF, 0x00, 0x00, 0x01}))
	if resp := s.lastResponse; resp[0] != 0x83 || resp[1] != exIllegalAddress {
		t.Fatalf("response = %x", resp)
	}
	// Unknown function -> illegal function.
	run(t, s, frame([]byte{0x55}))
	if resp := s.lastResponse; resp[0] != 0xD5 || resp[1] != exIllegalFunction {
		t.Fatalf("response = %x", resp)
	}
}

func TestWriteAndReadBackCoil(t *testing.T) {
	s := New()
	run(t, s, frame([]byte{0x05, 0x00, 0x0A, 0xFF, 0x00}))
	if !s.coils[10] {
		t.Fatal("coil 10 not set")
	}
	run(t, s, frame([]byte{0x01, 0x00, 0x0A, 0x00, 0x01}))
	resp := s.lastResponse
	if resp[9]&1 != 1 {
		t.Fatalf("read coils response = %x", resp)
	}
	// Illegal coil value.
	run(t, s, frame([]byte{0x05, 0x00, 0x0A, 0x12, 0x34}))
	if resp := s.lastResponse; resp[0] != 0x85 || resp[1] != exIllegalValue {
		t.Fatalf("response = %x", resp)
	}
}

func TestWriteSingleRegister(t *testing.T) {
	s := New()
	run(t, s, frame([]byte{0x06, 0x00, 0x20, 0xBE, 0xEF}))
	if s.holding[0x20] != 0xBEEF {
		t.Fatalf("holding[0x20] = %04x", s.holding[0x20])
	}
}

func TestWriteMultipleRegisters(t *testing.T) {
	s := New()
	res := run(t, s, frame([]byte{0x10, 0x00, 0x30, 0x00, 0x02, 0x04, 0xDE, 0xAD, 0xBE, 0xEF}))
	if res.Outcome != executor.OK {
		t.Fatalf("crash: %v", res.Fault)
	}
	if s.holding[0x30] != 0xDEAD || s.holding[0x31] != 0xBEEF {
		t.Fatal("registers not written")
	}
	// Byte count mismatch.
	run(t, s, frame([]byte{0x10, 0x00, 0x30, 0x00, 0x02, 0x05, 0xDE, 0xAD, 0xBE, 0xEF, 0x00}))
	if resp := s.lastResponse; resp[0] != 0x90 {
		t.Fatalf("response = %x", resp)
	}
}

func TestWriteMultipleCoils(t *testing.T) {
	s := New()
	run(t, s, frame([]byte{0x0F, 0x00, 0x00, 0x00, 0x0A, 0x02, 0xFF, 0x03}))
	for i := 0; i < 10; i++ {
		if !s.coils[i] {
			t.Fatalf("coil %d not set", i)
		}
	}
}

func TestMaskWriteRegister(t *testing.T) {
	s := New()
	s.holding[5] = 0x12
	// and=0xF2 or=0x25: (0x12 & 0xF2) | (0x25 & ^0xF2) = 0x12 | 0x05 = 0x17
	run(t, s, frame([]byte{0x16, 0x00, 0x05, 0x00, 0xF2, 0x00, 0x25}))
	if s.holding[5] != 0x17 {
		t.Fatalf("mask write gave %04x", s.holding[5])
	}
}

func TestUnitFiltering(t *testing.T) {
	s := New()
	run(t, s, frame([]byte{0x06, 0x00, 0x01, 0x11, 0x11}))
	pkt := frame([]byte{0x06, 0x00, 0x02, 0x22, 0x22})
	pkt[6] = 0x07 // not our unit
	run(t, s, pkt)
	if s.holding[2] == 0x2222 {
		t.Fatal("server handled a frame addressed elsewhere")
	}
}

func TestSeededUAF(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	// Step 1: force listen-only (frees the event buffer).
	res, _ := r.Run(frame([]byte{0x08, 0x00, 0x04, 0x00, 0x00}))
	if res.Outcome != executor.OK {
		t.Fatalf("force listen-only crashed: %v", res.Fault)
	}
	// Step 2: restart comms to leave listen-only... which is the only fc
	// processed. Then return query data reads the freed buffer.
	res, _ = r.Run(frame([]byte{0x08, 0x00, 0x01, 0x00, 0x00}))
	if res.Outcome != executor.OK {
		t.Fatalf("restart crashed: %v", res.Fault)
	}
	res, _ = r.Run(frame([]byte{0x08, 0x00, 0x00, 0x12, 0x34}))
	if res.Outcome != executor.Crash || res.Fault.Kind != mem.HeapUseAfterFree {
		t.Fatalf("expected UAF, got %+v fault=%+v", res.Outcome, res.Fault)
	}
}

func TestSeededSEGV(t *testing.T) {
	s := New()
	// 0x17 with writeQty=0 and readQty beyond the mapping.
	pdu := []byte{0x17, 0x02, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}
	res := run(t, s, frame(pdu))
	if res.Outcome != executor.Crash {
		t.Fatal("expected crash on unchecked fast path")
	}
	if res.Fault.Kind != mem.SEGV && res.Fault.Kind != mem.HeapBufferOverflow {
		t.Fatalf("fault = %+v", res.Fault)
	}
}

func TestRWMultipleValidPath(t *testing.T) {
	s := New()
	s.holding[0] = 0xAA
	pdu := []byte{0x17, 0x00, 0x00, 0x00, 0x01, 0x00, 0x10, 0x00, 0x01, 0x02, 0x55, 0x66}
	res := run(t, s, frame(pdu))
	if res.Outcome != executor.OK {
		t.Fatalf("valid 0x17 crashed: %v", res.Fault)
	}
	if s.holding[0x10] != 0x5566 {
		t.Fatal("write part of 0x17 lost")
	}
	resp := s.lastResponse
	if resp[7] != 0x17 || resp[9] != 0x00 || resp[10] != 0xAA {
		t.Fatalf("read part wrong: %x", resp)
	}
}

func TestDiagnosticsClearAndCounters(t *testing.T) {
	s := New()
	run(t, s, frame([]byte{0x06, 0x00, 0x01, 0x11, 0x11})) // bump event count
	run(t, s, frame([]byte{0x0B}))
	resp := s.lastResponse
	if resp[10] != 0 || resp[11] != 1 {
		t.Fatalf("event counter response = %x", resp)
	}
	run(t, s, frame([]byte{0x08, 0x00, 0x0A, 0x00, 0x00})) // clear
	run(t, s, frame([]byte{0x0B}))
	if resp := s.lastResponse; resp[11] != 0 {
		t.Fatal("counters not cleared")
	}
}

func TestListenOnlyDropsTraffic(t *testing.T) {
	s := New()
	run(t, s, frame([]byte{0x08, 0x00, 0x04, 0x00, 0x00})) // force listen-only
	run(t, s, frame([]byte{0x06, 0x00, 0x03, 0x77, 0x77}))
	if s.holding[3] == 0x7777 {
		t.Fatal("listen-only server processed a write")
	}
	run(t, s, frame([]byte{0x08, 0x00, 0x01, 0x00, 0x00})) // restart
	run(t, s, frame([]byte{0x06, 0x00, 0x03, 0x77, 0x77}))
	if s.holding[3] != 0x7777 {
		t.Fatal("server did not resume after restart")
	}
}

func TestOpcodesAreModelTokens(t *testing.T) {
	seen := map[uint64]bool{}
	for _, m := range ModbusModels() {
		inst := m.Generate()
		fc := inst.Find("fc")
		if fc == nil || !fc.Chunk.Token {
			t.Fatalf("model %s has no fc token", m.Name)
		}
		seen[fc.Uint()] = true
	}
	for _, fc := range []uint64{fcReadCoils, fcDiagnostics, fcReadWriteMultipleRegs} {
		if !seen[fc] {
			t.Fatalf("no model for function code %#x", fc)
		}
	}
}

func TestLengthRelationMaintained(t *testing.T) {
	for _, m := range ModbusModels() {
		n := m.Generate()
		lengthField := n.Find("length")
		if lengthField == nil {
			continue // RTU models carry a CRC instead of an MBAP length
		}
		ln := lengthField.Uint()
		if int(ln) != n.Find("tail").Len() {
			t.Fatalf("model %s: length %d != tail %d", m.Name, ln, n.Find("tail").Len())
		}
	}
}

func TestCoverageDiffersByFunction(t *testing.T) {
	s := New()
	tr := coverage.NewTracer()
	s.Handle(tr, frame([]byte{0x03, 0x00, 0x00, 0x00, 0x01}))
	sig1 := tr.PathHash()
	tr.Reset()
	s.Handle(tr, frame([]byte{0x01, 0x00, 0x00, 0x00, 0x01}))
	sig2 := tr.PathHash()
	if sig1 == sig2 {
		t.Fatal("different function codes should trace differently")
	}
}

var _ = datamodel.Variable // keep import for potential helpers
