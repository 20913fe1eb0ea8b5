package iec104

import (
	"testing"

	"repro/internal/executor"
)

func TestDoublePoints(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	r.Run(startDT)
	asdu := []byte{typeMDpNa, 1, 3, 0, 1, 0, 0x04, 0x00, 0x00, 0x02}
	if res, _ := r.Run(iFrameFor(asdu)); res.Outcome != executor.OK {
		t.Fatalf("double point crashed: %v", res.Fault)
	}
	if s.ext.doublePoints[4] != 2 {
		t.Fatalf("doublePoints[4] = %d", s.ext.doublePoints[4])
	}
	// Sequence mode.
	asdu = []byte{typeMDpNa, 0x82, 3, 0, 1, 0, 0x08, 0x00, 0x00, 0x01, 0x02}
	r.Run(iFrameFor(asdu))
	if s.ext.doublePoints[8] != 1 || s.ext.doublePoints[9] != 2 {
		t.Fatal("sequence double points wrong")
	}
}

func TestShortFloats(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	r.Run(startDT)
	// 1.0f = 0x3F800000, little-endian on the wire.
	asdu := []byte{typeMMeNc, 1, 3, 0, 1, 0, 0x05, 0x00, 0x00, 0x00, 0x00, 0x80, 0x3F, 0x00}
	if res, _ := r.Run(iFrameFor(asdu)); res.Outcome != executor.OK {
		t.Fatalf("short float crashed: %v", res.Fault)
	}
	if s.ext.floats[5] != 1.0 {
		t.Fatalf("floats[5] = %v", s.ext.floats[5])
	}
	// NaN is screened out.
	asdu = []byte{typeMMeNc, 1, 3, 0, 1, 0, 0x06, 0x00, 0x00, 0x01, 0x00, 0xC0, 0x7F, 0x00}
	r.Run(iFrameFor(asdu))
	if s.ext.floats[6] != 0 {
		t.Fatal("NaN stored")
	}
}

func TestFloatFromBits(t *testing.T) {
	cases := []struct {
		bits uint32
		want float32
	}{
		{0x3F800000, 1.0},
		{0xBF800000, -1.0},
		{0x40490FDB, 3.1415927},
		{0x00000000, 0.0},
		{0x42F60000, 123.0},
	}
	for _, c := range cases {
		got := floatFromBits(c.bits)
		diff := got - c.want
		if diff < 0 {
			diff = -diff
		}
		if diff > 1e-5 {
			t.Errorf("floatFromBits(%08x) = %v, want %v", c.bits, got, c.want)
		}
	}
}

func TestIntegratedTotals(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	r.Run(startDT)
	asdu := []byte{typeMItNa, 1, 3, 0, 1, 0, 0x02, 0x00, 0x00, 0x2A, 0x00, 0x00, 0x00, 0x01}
	r.Run(iFrameFor(asdu))
	if s.ext.totals[2] != 42 {
		t.Fatalf("totals[2] = %d", s.ext.totals[2])
	}
	// Invalid flag (bit 7 of sequence byte) rejects the counter.
	asdu = []byte{typeMItNa, 1, 3, 0, 1, 0, 0x03, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x81}
	r.Run(iFrameFor(asdu))
	if s.ext.totals[3] != 0 {
		t.Fatal("invalid counter stored")
	}
}

func TestDoubleCommand(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	r.Run(startDT)
	// DCS=2 (on), COT=6.
	asdu := []byte{typeCDcNa, 1, 6, 0, 1, 0, 0x07, 0x00, 0x00, 0x02}
	r.Run(iFrameFor(asdu))
	if s.ext.doublePoints[7] != 2 {
		t.Fatal("double command not executed")
	}
	// DCS=0 invalid.
	asdu = []byte{typeCDcNa, 1, 6, 0, 1, 0, 0x08, 0x00, 0x00, 0x00}
	r.Run(iFrameFor(asdu))
	if s.ext.doublePoints[8] != 0 {
		t.Fatal("invalid DCS executed")
	}
	// Select bit set: no execution.
	asdu = []byte{typeCDcNa, 1, 6, 0, 1, 0, 0x09, 0x00, 0x00, 0x82}
	r.Run(iFrameFor(asdu))
	if s.ext.doublePoints[9] != 0 {
		t.Fatal("select-only command executed")
	}
}

func TestReadAndTestCommands(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	r.Run(startDT)
	for _, asdu := range [][]byte{
		{typeCRdNa, 1, 5, 0, 1, 0, 0x01, 0x00, 0x00},    // read, COT 5
		{typeCRdNa, 1, 6, 0, 1, 0, 0x01, 0x00, 0x00},    // wrong COT
		{typeCTsNa, 1, 6, 0, 1, 0, 0, 0, 0, 0xAA, 0x55}, // good pattern
		{typeCTsNa, 1, 6, 0, 1, 0, 0, 0, 0, 0x12, 0x34}, // bad pattern
		{typeCTsNa, 1, 6, 0, 1, 0, 0, 0},                // truncated
	} {
		if res, _ := r.Run(iFrameFor(asdu)); res.Outcome != executor.OK {
			t.Fatalf("command %x crashed: %v", asdu, res.Fault)
		}
	}
}

func TestExtendedModelsSelfConsistent(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	r.Run(startDT)
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

func TestExtendedMalformedSafe(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	r.Run(startDT)
	for _, asdu := range [][]byte{
		{typeMDpNa, 9, 3, 0, 1, 0, 0x04, 0x00, 0x00, 0x02}, // count beyond body
		{typeMMeNc, 9, 3, 0, 1, 0, 0x05, 0x00, 0x00},       // short float objects
		{typeMItNa, 9, 3, 0, 1, 0},                         // empty body
		{typeCDcNa, 1, 6, 0, 1, 0},                         // no object
	} {
		if res, _ := r.Run(iFrameFor(asdu)); res.Outcome != executor.OK {
			t.Fatalf("malformed %x crashed: %v", asdu, res.Fault)
		}
	}
}
