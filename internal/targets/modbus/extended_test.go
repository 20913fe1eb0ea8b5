package modbus

import (
	"testing"

	"repro/internal/datamodel"
	"repro/internal/executor"
)

// rtuFrame builds a valid RTU frame around a PDU.
func rtuFrame(slave byte, pdu []byte) []byte {
	out := append([]byte{slave}, pdu...)
	crc := datamodel.CRC16ModbusSum(out)
	return append(out, byte(crc), byte(crc>>8))
}

func TestRTUFrameDispatch(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	res, _ := r.Run(rtuFrame(1, []byte{0x06, 0x00, 0x40, 0xCA, 0xFE}))
	if res.Outcome != executor.OK {
		t.Fatalf("RTU write crashed: %v", res.Fault)
	}
	if s.holding[0x40] != 0xCAFE {
		t.Fatalf("holding[0x40] = %04x", s.holding[0x40])
	}
}

func TestRTUBadCRCDropped(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	pkt := rtuFrame(1, []byte{0x06, 0x00, 0x41, 0x11, 0x11})
	pkt[len(pkt)-1] ^= 0xFF
	r.Run(pkt)
	if s.holding[0x41] == 0x1111 {
		t.Fatal("RTU frame with bad CRC processed")
	}
}

func TestRTUWrongSlaveDropped(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	// Slave 5 frames do not even reach the RTU discriminator (first
	// byte > 1), and the MBAP path rejects them.
	pkt := rtuFrame(5, []byte{0x06, 0x00, 0x42, 0x22, 0x22})
	r.Run(pkt)
	if s.holding[0x42] == 0x2222 {
		t.Fatal("frame for another slave processed")
	}
}

func TestRTUSharesServiceLayerWithTCP(t *testing.T) {
	// The same UAF state machine is reachable over RTU — the shared
	// dispatch of Fig. 2.
	s := New()
	r := executor.NewInProc(s)
	r.Run(rtuFrame(1, []byte{0x08, 0x00, 0x04, 0x00, 0x00})) // force listen-only
	r.Run(rtuFrame(1, []byte{0x08, 0x00, 0x01, 0x00, 0x00})) // restart
	res, _ := r.Run(rtuFrame(1, []byte{0x08, 0x00, 0x00, 0x12, 0x34}))
	if res.Outcome != executor.Crash {
		t.Fatal("UAF not reachable over the RTU path")
	}
}

func TestReadFileRecord(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	// One sub-request: file 2, record 1, length 2.
	pdu := []byte{fcReadFileRecord, 7, refTypeFileRecord, 0x00, 0x02, 0x00, 0x01, 0x00, 0x02}
	res, _ := r.Run(frame(pdu))
	if res.Outcome != executor.OK {
		t.Fatalf("read file record crashed: %v", res.Fault)
	}
	resp := s.lastResponse
	// fc, respLen, subLen=5, refType, then records 0x0201 0x0202.
	if resp[7] != fcReadFileRecord || resp[9] != 5 || resp[10] != refTypeFileRecord {
		t.Fatalf("response header = %x", resp)
	}
	if resp[11] != 0x02 || resp[12] != 0x01 || resp[13] != 0x02 || resp[14] != 0x02 {
		t.Fatalf("record data = %x", resp[11:])
	}
}

func TestReadFileRecordValidation(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	cases := [][]byte{
		{fcReadFileRecord},                                                // truncated
		{fcReadFileRecord, 6, 1, 2, 3, 4, 5, 6},                           // byteCount not multiple of 7
		{fcReadFileRecord, 7, 0x09, 0, 2, 0, 1, 0, 2},                     // wrong ref type
		{fcReadFileRecord, 7, refTypeFileRecord, 0x00, 0x09, 0, 1, 0, 2},  // file out of range
		{fcReadFileRecord, 7, refTypeFileRecord, 0x00, 0x01, 0, 30, 0, 9}, // rec+len beyond file
	}
	for _, pdu := range cases {
		if res, _ := r.Run(frame(pdu)); res.Outcome != executor.OK {
			t.Fatalf("malformed file-record request crashed: %x -> %v", pdu, res.Fault)
		}
	}
}

func TestWriteThenReadFileRecord(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	// Write two records to file 3 starting at record 4.
	pdu := []byte{fcWriteFileRecord, 11, refTypeFileRecord, 0x00, 0x03, 0x00, 0x04, 0x00, 0x02,
		0xAA, 0xBB, 0xCC, 0xDD}
	if res, _ := r.Run(frame(pdu)); res.Outcome != executor.OK {
		t.Fatalf("write file record crashed: %v", res.Fault)
	}
	if s.files[3][4] != 0xAABB || s.files[3][5] != 0xCCDD {
		t.Fatalf("file records = %04x %04x", s.files[3][4], s.files[3][5])
	}
}

func TestReadFIFOQueue(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	s.holding[0x50] = 3 // depth
	s.holding[0x51] = 0x0102
	s.holding[0x52] = 0x0304
	s.holding[0x53] = 0x0506
	res, _ := r.Run(frame([]byte{fcReadFIFOQueue, 0x00, 0x50}))
	if res.Outcome != executor.OK {
		t.Fatalf("fifo crashed: %v", res.Fault)
	}
	resp := s.lastResponse
	if resp[11] != 3 || resp[12] != 0x01 || resp[13] != 0x02 {
		t.Fatalf("fifo response = %x", resp)
	}
	// Over-depth queue -> illegal value.
	s.holding[0x60] = 99
	r.Run(frame([]byte{fcReadFIFOQueue, 0x00, 0x60}))
	if resp := s.lastResponse; resp[0] != fcReadFIFOQueue|0x80 || resp[1] != exIllegalValue {
		t.Fatalf("over-depth response = %x", resp)
	}
}

func TestDeviceIdentification(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	// Stream access: basic objects.
	res, _ := r.Run(frame([]byte{fcEncapsulated, meiDeviceID, 0x01, 0x00}))
	if res.Outcome != executor.OK {
		t.Fatalf("device id crashed: %v", res.Fault)
	}
	resp := s.lastResponse
	if resp[7] != fcEncapsulated || resp[8] != meiDeviceID {
		t.Fatalf("device id response = %x", resp)
	}
	// Individual access: object 1 = product code.
	r.Run(frame([]byte{fcEncapsulated, meiDeviceID, 0x04, 0x01}))
	resp = s.lastResponse
	if string(resp[len(resp)-5:]) != "PSTAR" {
		t.Fatalf("individual object response = %x", resp)
	}
	// Unknown MEI type -> illegal function.
	r.Run(frame([]byte{fcEncapsulated, 0x0D, 0x01, 0x00}))
	if resp := s.lastResponse; resp[0] != fcEncapsulated|0x80 {
		t.Fatalf("unknown MEI response = %x", resp)
	}
	// Unknown object in individual mode -> illegal address.
	r.Run(frame([]byte{fcEncapsulated, meiDeviceID, 0x04, 0x55}))
	if resp := s.lastResponse; resp[1] != exIllegalAddress {
		t.Fatalf("unknown object response = %x", resp)
	}
}

func TestExtendedModelsRoundTrip(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	for _, m := range ModbusModels() {
		pkt := m.Generate().Bytes()
		if _, err := m.Crack(pkt); err != nil {
			t.Fatalf("model %s round trip: %v", m.Name, err)
		}
		if res, _ := r.Run(pkt); res.Outcome == executor.Crash {
			t.Fatalf("default %s crashed: %v", m.Name, res.Fault)
		}
	}
}

func TestRTUModelMatchesWire(t *testing.T) {
	for _, m := range ModbusModels() {
		if m.Name != "RTUReadHolding" {
			continue
		}
		got := m.Generate().Bytes()
		want := rtuFrame(1, []byte{0x03, 0x00, 0x00, 0x00, 0x04})
		if len(got) != len(want) {
			t.Fatalf("lengths differ: %x vs %x", got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("byte %d: %x vs %x", i, got, want)
			}
		}
		return
	}
	t.Fatal("RTUReadHolding model missing")
}

var _ = datamodel.CRC16Modbus // document the fixup pairing with HandleRTU
