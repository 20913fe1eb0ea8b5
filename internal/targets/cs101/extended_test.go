package cs101

import (
	"testing"

	"repro/internal/executor"
)

func TestBitstrings(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	resetLink(r)
	asdu := []byte{typeMBoNa, 1, 3, 0, 1, 0, 0x05, 0x00, 0x00, 0xEF, 0xBE, 0xAD, 0xDE, 0x00}
	if res, _ := r.Run(varFrameRaw(asdu)); res.Outcome != executor.OK {
		t.Fatalf("bitstring crashed: %v", res.Fault)
	}
	if s.bitext.bitstrings[5] != 0xDEADBEEF {
		t.Fatalf("bitstrings[5] = %08x", s.bitext.bitstrings[5])
	}
	// Count beyond body: checked path, no crash.
	asdu = []byte{typeMBoNa, 9, 3, 0, 1, 0, 0x05, 0x00, 0x00}
	if res, _ := r.Run(varFrameRaw(asdu)); res.Outcome != executor.OK {
		t.Fatalf("short bitstring crashed: %v", res.Fault)
	}
}

func TestDoubleCommandCS101(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	resetLink(r)
	asdu := []byte{typeCDcNa, 1, 6, 0, 1, 0, 0x06, 0x00, 0x00, 0x02}
	r.Run(varFrameRaw(asdu))
	if s.bitext.doublePoints[6] != 2 {
		t.Fatal("double command not executed")
	}
	// Invalid DCS 3 and select bit both refuse.
	r.Run(varFrameRaw([]byte{typeCDcNa, 1, 6, 0, 1, 0, 0x07, 0x00, 0x00, 0x03}))
	r.Run(varFrameRaw([]byte{typeCDcNa, 1, 6, 0, 1, 0, 0x08, 0x00, 0x00, 0x81}))
	if s.bitext.doublePoints[7] != 0 || s.bitext.doublePoints[8] != 0 {
		t.Fatal("invalid double command executed")
	}
}

func TestSetpointNormalized(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	resetLink(r)
	// value 0x4000, QOS execute.
	asdu := []byte{typeCSeNa, 1, 6, 0, 1, 0, 0x07, 0x00, 0x00, 0x00, 0x40, 0x00}
	if res, _ := r.Run(varFrameRaw(asdu)); res.Outcome != executor.OK {
		t.Fatalf("normalized setpoint crashed: %v", res.Fault)
	}
	if s.bitext.normalized[7] != 0x4000 {
		t.Fatalf("normalized[7] = %04x", s.bitext.normalized[7])
	}
	// Unlike the seeded scaled variant, truncation here is SAFE.
	asdu = []byte{typeCSeNa, 5, 6, 0, 1, 0, 0x07, 0x00, 0x00}
	if res, _ := r.Run(varFrameRaw(asdu)); res.Outcome != executor.OK {
		t.Fatalf("short normalized setpoint crashed: %v", res.Fault)
	}
}

func TestParameterActivation(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	resetLink(r)
	r.Run(varFrameRaw([]byte{typePAcNa, 1, 6, 0, 1, 0, 0x08, 0x00, 0x00, 0x01}))
	if !s.bitext.paramsActive[8] {
		t.Fatal("parameter not activated")
	}
	r.Run(varFrameRaw([]byte{typePAcNa, 1, 8, 0, 1, 0, 0x08, 0x00, 0x00, 0x02}))
	if s.bitext.paramsActive[8] {
		t.Fatal("parameter not deactivated")
	}
	// Unknown QPA: no state change, distinct branch.
	r.Run(varFrameRaw([]byte{typePAcNa, 1, 6, 0, 1, 0, 0x09, 0x00, 0x00, 0x07}))
	if s.bitext.paramsActive[9] {
		t.Fatal("unknown QPA executed")
	}
}

func TestExtendedModelsSelfConsistent(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	resetLink(r)
	for _, m := range CS101Models() {
		pkt := m.Generate().Bytes()
		if _, err := m.Crack(pkt); err != nil {
			t.Fatalf("model %s round trip: %v", m.Name, err)
		}
		if res, _ := r.Run(pkt); res.Outcome == executor.Crash {
			t.Fatalf("default %s crashed: %v", m.Name, res.Fault)
		}
	}
}
