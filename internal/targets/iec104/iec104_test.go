package iec104

import (
	"testing"

	"repro/internal/executor"
	"repro/internal/targets"
)

// apciFrame wraps APDU bytes with start byte and length.
func apciFrame(apdu []byte) []byte {
	out := []byte{0x68, byte(len(apdu))}
	return append(out, apdu...)
}

// iFrameFor builds an I frame with the given ASDU.
func iFrameFor(asdu []byte) []byte {
	apdu := append([]byte{0x00, 0x00, 0x00, 0x00}, asdu...)
	return apciFrame(apdu)
}

// startDT is the STARTDT activation U frame.
var startDT = []byte{0x68, 0x04, 0x07, 0x00, 0x00, 0x00}

func TestRegistered(t *testing.T) {
	tgt, err := targets.New("IEC104")
	if err != nil {
		t.Fatal(err)
	}
	if tgt.Name() != "IEC104" {
		t.Fatalf("name = %s", tgt.Name())
	}
	if len(tgt.Models()) != 13 {
		t.Fatalf("models = %d", len(tgt.Models()))
	}
}

func TestModelsSelfConsistent(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	for _, m := range IEC104Models() {
		pkt := m.Generate().Bytes()
		if _, err := m.Crack(pkt); err != nil {
			t.Fatalf("model %s round trip: %v", m.Name, err)
		}
		if res, _ := r.Run(pkt); res.Outcome == executor.Crash {
			t.Fatalf("default %s crashed: %v", m.Name, res.Fault)
		}
	}
}

func TestStateMachine(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	if s.started {
		t.Fatal("slave should start stopped")
	}
	r.Run(startDT)
	if !s.started {
		t.Fatal("STARTDT not processed")
	}
	r.Run([]byte{0x68, 0x04, 0x13, 0x00, 0x00, 0x00}) // STOPDT
	if s.started {
		t.Fatal("STOPDT not processed")
	}
}

func TestIFrameDroppedWhenStopped(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	asdu := []byte{typeMSpNa, 1, 6, 0, 1, 0, 0x01, 0x00, 0x00, 0x01}
	r.Run(iFrameFor(asdu))
	if s.points[1] {
		t.Fatal("stopped slave processed an I frame")
	}
	r.Run(startDT)
	r.Run(iFrameFor(asdu))
	if !s.points[1] {
		t.Fatal("started slave ignored single point")
	}
}

func TestMalformedFramesSafe(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	r.Run(startDT)
	for _, pkt := range [][]byte{
		nil,
		{0x68},
		{0x67, 4, 7, 0, 0, 0},         // wrong start byte
		{0x68, 9, 7, 0, 0, 0},         // bad length
		apciFrame([]byte{0, 0, 0, 0}), // I frame with no ASDU
		iFrameFor([]byte{1, 1, 6}),    // truncated ASDU header
		iFrameFor([]byte{1, 9, 6, 0, 1, 0, 0x01}), // VSQ larger than body
	} {
		if res, _ := r.Run(pkt); res.Outcome != executor.OK {
			t.Fatalf("malformed frame crashed: %x -> %v", pkt, res.Fault)
		}
	}
}

func TestCommonAddressZeroRejected(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	r.Run(startDT)
	asdu := []byte{typeMSpNa, 1, 6, 0, 0, 0, 0x01, 0x00, 0x00, 0x01}
	r.Run(iFrameFor(asdu))
	if s.points[1] {
		t.Fatal("ASDU with CA=0 should be dropped")
	}
}

func TestSequenceEncodedPoints(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	r.Run(startDT)
	// VSQ sequence bit + n=3, base IOA 5: values 1,0,1.
	asdu := []byte{typeMSpNa, 0x83, 6, 0, 1, 0, 0x05, 0x00, 0x00, 0x01, 0x00, 0x01}
	res, _ := r.Run(iFrameFor(asdu))
	if res.Outcome != executor.OK {
		t.Fatalf("crash: %v", res.Fault)
	}
	if !s.points[5] || s.points[6] || !s.points[7] {
		t.Fatal("sequence-encoded points wrong")
	}
}

func TestMeasuredValues(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	r.Run(startDT)
	asdu := []byte{typeMMeNa, 1, 3, 0, 1, 0, 0x02, 0x00, 0x00, 0x34, 0x12, 0x00}
	r.Run(iFrameFor(asdu))
	if s.measured[2] != 0x1234 {
		t.Fatalf("measured[2] = %04x", s.measured[2])
	}
}

func TestSingleCommand(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	r.Run(startDT)
	// COT=6 act, IOA=3, SCO=1 (on, execute).
	asdu := []byte{typeCScNa, 1, 6, 0, 1, 0, 0x03, 0x00, 0x00, 0x01}
	r.Run(iFrameFor(asdu))
	if !s.points[3] {
		t.Fatal("command not executed")
	}
	// Select bit set: no execution.
	asdu = []byte{typeCScNa, 1, 6, 0, 1, 0, 0x04, 0x00, 0x00, 0x81}
	r.Run(iFrameFor(asdu))
	if s.points[4] {
		t.Fatal("select-only command executed")
	}
	// Wrong COT ignored.
	asdu = []byte{typeCScNa, 1, 3, 0, 1, 0, 0x05, 0x00, 0x00, 0x01}
	r.Run(iFrameFor(asdu))
	if s.points[5] {
		t.Fatal("command with COT=3 executed")
	}
}

func TestClockSyncValidation(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	r.Run(startDT)
	good := []byte{typeCCsNa, 1, 6, 0, 1, 0, 0, 0, 0, 0x00, 0x00, 0x1E, 0x0A, 0x0C, 0x06, 0x14}
	if res, _ := r.Run(iFrameFor(good)); res.Outcome != executor.OK {
		t.Fatalf("clock sync crashed: %v", res.Fault)
	}
}

func TestNoSeededCrashes(t *testing.T) {
	// IEC104 carries no Table I bugs: hammer it with structured noise and
	// expect zero crashes.
	s := New()
	r := executor.NewInProc(s)
	r.Run(startDT)
	for i := 0; i < 2000; i++ {
		pkt := []byte{0x68, 0, byte(i), byte(i >> 3), byte(i >> 5), byte(i >> 7),
			byte(i), byte(i >> 1), 6, 0, 1, 0, byte(i), 0, 0, byte(i)}
		pkt[1] = byte(len(pkt) - 2)
		if res, _ := r.Run(pkt); res.Outcome == executor.Crash {
			t.Fatalf("unexpected crash on %x: %v", pkt, res.Fault)
		}
	}
}
