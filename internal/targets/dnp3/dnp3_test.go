package dnp3

import (
	"testing"

	"repro/internal/datamodel"
	"repro/internal/executor"
	"repro/internal/targets"
)

// buildFrame assembles a valid single-block link frame around an app
// fragment (transport octet included by the caller).
func buildFrame(user []byte) []byte {
	hdr := []byte{0x05, 0x64, byte(len(user) + 5), 0xC4, 10, 0, 1, 0}
	crc := datamodel.CRC16DNPSum(hdr)
	out := append(hdr, byte(crc), byte(crc>>8))
	for len(user) > 0 {
		n := len(user)
		if n > 16 {
			n = 16
		}
		block := user[:n]
		bcrc := datamodel.CRC16DNPSum(block)
		out = append(out, block...)
		out = append(out, byte(bcrc), byte(bcrc>>8))
		user = user[n:]
	}
	return out
}

// app builds a single-fragment application request.
func app(fc byte, objs ...byte) []byte {
	return append([]byte{0xC0, 0xC0, fc}, objs...)
}

func TestRegistered(t *testing.T) {
	tgt, err := targets.New("opendnp3")
	if err != nil {
		t.Fatal(err)
	}
	if tgt.Name() != "opendnp3" {
		t.Fatalf("name = %s", tgt.Name())
	}
	if len(tgt.Models()) != 17 {
		t.Fatalf("models = %d", len(tgt.Models()))
	}
}

func TestModelsSelfConsistent(t *testing.T) {
	o := New()
	r := executor.NewInProc(o)
	for _, m := range DNP3Models() {
		pkt := m.Generate().Bytes()
		if _, err := m.Crack(pkt); err != nil {
			t.Fatalf("model %s round trip: %v", m.Name, err)
		}
		if res, _ := r.Run(pkt); res.Outcome == executor.Crash {
			t.Fatalf("default %s crashed: %v", m.Name, res.Fault)
		}
	}
}

func TestModelFramesAreLinkValid(t *testing.T) {
	// The generated frames must parse as far as the application layer:
	// compare a generated ReadClassData frame against a hand-built one.
	m := DNP3Models()[0]
	got := m.Generate().Bytes()
	want := buildFrame(app(afRead, grClassData, 1, 0x06))
	if len(got) != len(want) {
		t.Fatalf("generated frame length %d, hand-built %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("byte %d: got %02x want %02x\n got %x\nwant %x", i, got[i], want[i], got, want)
		}
	}
}

func TestBadCRCDropped(t *testing.T) {
	o := New()
	r := executor.NewInProc(o)
	pkt := buildFrame(app(afColdRestart))
	pkt[8] ^= 0xFF // header CRC
	r.Run(pkt)
	if o.restarts != 0 {
		t.Fatal("frame with bad header CRC processed")
	}
	pkt = buildFrame(app(afColdRestart))
	pkt[len(pkt)-1] ^= 0xFF // block CRC
	r.Run(pkt)
	if o.restarts != 0 {
		t.Fatal("frame with bad block CRC processed")
	}
	pkt = buildFrame(app(afColdRestart))
	r.Run(pkt)
	if o.restarts != 1 {
		t.Fatal("valid restart not processed")
	}
}

func TestAddressFiltering(t *testing.T) {
	o := New()
	r := executor.NewInProc(o)
	user := app(afColdRestart)
	hdr := []byte{0x05, 0x64, byte(len(user) + 5), 0xC4, 99, 0, 1, 0} // wrong dest
	crc := datamodel.CRC16DNPSum(hdr)
	pkt := append(hdr, byte(crc), byte(crc>>8))
	bcrc := datamodel.CRC16DNPSum(user)
	pkt = append(pkt, user...)
	pkt = append(pkt, byte(bcrc), byte(bcrc>>8))
	r.Run(pkt)
	if o.restarts != 0 {
		t.Fatal("frame for another outstation processed")
	}
}

func TestTransportRequiresFirFin(t *testing.T) {
	o := New()
	r := executor.NewInProc(o)
	user := app(afColdRestart)
	user[0] = 0x40 // FIR only
	r.Run(buildFrame(user))
	if o.restarts != 0 {
		t.Fatal("multi-fragment transport accepted")
	}
}

func TestWriteTime(t *testing.T) {
	o := New()
	r := executor.NewInProc(o)
	pkt := buildFrame(app(afWrite, grTime, 1, 0x07, 1, 0x10, 0x32, 0x54, 0x76, 0x98, 0x00))
	res, _ := r.Run(pkt)
	if res.Outcome != executor.OK {
		t.Fatalf("write crashed: %v", res.Fault)
	}
	if o.clock != 0x0098765432_10 {
		t.Fatalf("clock = %x", o.clock)
	}
}

func TestSelectBeforeOperate(t *testing.T) {
	o := New()
	r := executor.NewInProc(o)
	crob := []byte{grCROB, 1, 0x17, 1, 3, 0x01, 1, 100, 0, 0, 0, 0, 0, 0, 0, 0}
	// Operate without select: refused.
	r.Run(buildFrame(app(afOperate, crob...)))
	if o.outputs[3] {
		t.Fatal("operate without select executed")
	}
	// Select then operate: executes LATCH_ON at index 3.
	r.Run(buildFrame(app(afSelect, crob...)))
	r.Run(buildFrame(app(afOperate, crob...)))
	if !o.outputs[3] {
		t.Fatal("select+operate did not execute")
	}
	// Second operate without re-select: refused (select consumed).
	crobOff := append([]byte(nil), crob...)
	crobOff[5] = 0x03 // LATCH_OFF
	r.Run(buildFrame(app(afOperate, crobOff...)))
	if !o.outputs[3] {
		t.Fatal("operate ran without matching select")
	}
}

func TestDirectOperateSkipsSelect(t *testing.T) {
	o := New()
	r := executor.NewInProc(o)
	crob := []byte{grCROB, 1, 0x17, 1, 5, 0x01, 1, 100, 0, 0, 0, 0, 0, 0, 0, 0}
	r.Run(buildFrame(app(afDirectOperate, crob...)))
	if !o.outputs[5] {
		t.Fatal("direct operate did not execute")
	}
}

func TestInvalidControlCode(t *testing.T) {
	o := New()
	r := executor.NewInProc(o)
	crob := []byte{grCROB, 1, 0x17, 1, 2, 0x0F, 1, 100, 0, 0, 0, 0, 0, 0, 0, 0}
	r.Run(buildFrame(app(afDirectOperate, crob...)))
	if o.outputs[2] {
		t.Fatal("invalid op code executed")
	}
}

func TestReadRequests(t *testing.T) {
	o := New()
	r := executor.NewInProc(o)
	for _, objs := range [][]byte{
		{grClassData, 1, 0x06},
		{grClassData, 2, 0x06},
		{grBinaryInput, 1, 0x00, 0, 7},
		{grAnalogInput, 1, 0x01, 0, 0, 15, 0},
		{grCounter, 1, 0x07, 4},
		{grBinaryInput, 1, 0x00, 0, 200}, // range beyond bank, clamped
		{grTime, 1, 0x06},
	} {
		if res, _ := r.Run(buildFrame(app(afRead, objs...))); res.Outcome != executor.OK {
			t.Fatalf("read %x crashed: %v", objs, res.Fault)
		}
	}
}

func TestMalformedRequestsSafe(t *testing.T) {
	o := New()
	r := executor.NewInProc(o)
	for _, pkt := range [][]byte{
		nil,
		{0x05},
		{0x05, 0x64, 2, 0xC4, 10, 0, 1, 0, 0, 0}, // len < 5
		buildFrame([]byte{}),                     // no transport octet
		buildFrame([]byte{0xC0}),                 // no app header
		buildFrame(app(afRead)),                  // read with no headers: fine
		buildFrame(app(afRead, grBinaryInput)),   // truncated header
		buildFrame(app(afRead, grBinaryInput, 1, 0x00, 5)),    // missing stop
		buildFrame(app(afRead, grBinaryInput, 1, 0x00, 9, 2)), // start > stop
		buildFrame(app(afRead, grBinaryInput, 1, 0x44)),       // unknown qualifier
		buildFrame(app(afWrite, grTime, 1, 0x07, 1, 0x10)),    // short time object
		buildFrame(app(afSelect, grCROB, 1, 0x17, 1, 3)),      // short CROB
		buildFrame(app(0x7F)),                                 // unknown function
	} {
		if res, _ := r.Run(pkt); res.Outcome != executor.OK {
			t.Fatalf("malformed frame crashed: %x -> %v", pkt, res.Fault)
		}
	}
}

func TestUnsolicitedMask(t *testing.T) {
	o := New()
	r := executor.NewInProc(o)
	r.Run(buildFrame(app(afEnableUnsol, grClassData, 2, 0x06)))
	if !o.unsolEnabled[1] {
		t.Fatal("enable unsolicited class 1 failed")
	}
	r.Run(buildFrame(app(afDisableUnsol, grClassData, 2, 0x06)))
	if o.unsolEnabled[1] {
		t.Fatal("disable unsolicited failed")
	}
}

func TestCROBModelMatchesHandBuilt(t *testing.T) {
	m := DNP3Models()[6] // DirectOperateCROB
	if m.Name != "DirectOperateCROB" {
		t.Fatalf("model order changed: %s", m.Name)
	}
	o := New()
	r := executor.NewInProc(o)
	res, _ := r.Run(m.Generate().Bytes())
	if res.Outcome != executor.OK {
		t.Fatalf("generated CROB crashed: %v", res.Fault)
	}
	if !o.outputs[0] {
		t.Fatal("generated direct-operate CROB did not latch output 0")
	}
}
