package cs101

import (
	"testing"

	"repro/internal/executor"
	"repro/internal/mem"
	"repro/internal/targets"
)

// fixedFrame builds a valid 0x10 frame for a link function code.
func fixedFrame(fc byte) []byte {
	ctrl := byte(0x40 | fc)
	return []byte{0x10, ctrl, 0x01, ctrl + 0x01, 0x16}
}

// varFrameRaw wraps an ASDU in a valid variable frame (lengths, checksum).
func varFrameRaw(asdu []byte) []byte {
	body := append([]byte{0x73, 0x01}, asdu...)
	var sum byte
	for _, b := range body {
		sum += b
	}
	out := []byte{0x68, byte(len(body)), byte(len(body)), 0x68}
	out = append(out, body...)
	return append(out, sum, 0x16)
}

// resetLink brings the slave's link up.
func resetLink(r *executor.InProc) {
	r.Run(fixedFrame(fcResetRemoteLink))
}

func TestRegistered(t *testing.T) {
	tgt, err := targets.New("lib60870")
	if err != nil {
		t.Fatal(err)
	}
	if tgt.Name() != "lib60870" {
		t.Fatalf("name = %s", tgt.Name())
	}
}

func TestModelsSelfConsistent(t *testing.T) {
	for _, m := range CS101Models() {
		pkt := m.Generate().Bytes()
		if _, err := m.Crack(pkt); err != nil {
			t.Fatalf("model %s round trip: %v", m.Name, err)
		}
	}
}

func TestDefaultInstancesSafeAfterReset(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	resetLink(r)
	for _, m := range CS101Models() {
		if res, _ := r.Run(m.Generate().Bytes()); res.Outcome == executor.Crash {
			t.Fatalf("default %s crashed: %v", m.Name, res.Fault)
		}
	}
}

func TestLinkStateMachine(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	if s.linkReset {
		t.Fatal("link should start down")
	}
	// ASDUs before reset are dropped.
	asdu := []byte{typeMSpNa, 1, 6, 0, 1, 0, 0x01, 0x00, 0x00, 0x01}
	r.Run(varFrameRaw(asdu))
	if s.points[1] {
		t.Fatal("ASDU processed before link reset")
	}
	resetLink(r)
	if !s.linkReset {
		t.Fatal("reset frame not processed")
	}
	r.Run(varFrameRaw(asdu))
	if !s.points[1] {
		t.Fatal("ASDU dropped after link reset")
	}
}

func TestFixedFrameValidation(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	bad := fixedFrame(fcResetRemoteLink)
	bad[3]++ // break checksum
	r.Run(bad)
	if s.linkReset {
		t.Fatal("bad checksum accepted")
	}
	short := []byte{0x10, 0x40, 0x01, 0x41}
	if res, _ := r.Run(short); res.Outcome != executor.OK {
		t.Fatal("short fixed frame crashed")
	}
}

func TestVariableFrameValidation(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	resetLink(r)
	asdu := []byte{typeMSpNa, 1, 6, 0, 1, 0, 0x02, 0x00, 0x00, 0x01}
	good := varFrameRaw(asdu)

	lenMismatch := append([]byte(nil), good...)
	lenMismatch[1]++ // L1 != L2
	r.Run(lenMismatch)

	badCk := append([]byte(nil), good...)
	badCk[len(badCk)-2]++
	r.Run(badCk)

	noStop := append([]byte(nil), good...)
	noStop[len(noStop)-1] = 0x00
	r.Run(noStop)

	if s.points[2] {
		t.Fatal("corrupted frame processed")
	}
	r.Run(good)
	if !s.points[2] {
		t.Fatal("good frame rejected")
	}
}

// TestGetCOTCrash reproduces the paper's Listing 1/2: a truncated ASDU
// reaches CS101_ASDU_getCOT, which reads offset 2 without verification —
// SEGV (experiment E10).
func TestGetCOTCrash(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	resetLink(r)
	res, _ := r.Run(varFrameRaw([]byte{typeMSpNa, 1})) // 2-byte ASDU
	if res.Outcome != executor.Crash {
		t.Fatal("truncated ASDU should crash in getCOT")
	}
	if res.Fault.Kind != mem.SEGV {
		t.Fatalf("fault kind = %s, want SEGV", res.Fault.Kind)
	}
}

func TestGetCACrash(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	resetLink(r)
	// 4-byte ASDU: getCOT survives, getCA reads offsets 4-5 and faults.
	res, _ := r.Run(varFrameRaw([]byte{typeMSpNa, 1, 6, 0}))
	if res.Outcome != executor.Crash || res.Fault.Kind != mem.SEGV {
		t.Fatalf("res = %+v fault = %+v", res.Outcome, res.Fault)
	}
}

func TestSetpointCountCrash(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	resetLink(r)
	// VSQ claims 5 objects, only one carried.
	asdu := []byte{typeCSeNb, 5, 6, 0, 1, 0, 0x04, 0x00, 0x00, 0x64, 0x00, 0x00}
	res, _ := r.Run(varFrameRaw(asdu))
	if res.Outcome != executor.Crash || res.Fault.Kind != mem.SEGV {
		t.Fatalf("res = %+v fault = %+v", res.Outcome, res.Fault)
	}
}

func TestThreeDistinctSEGVSites(t *testing.T) {
	// The three seeded faults must dedup to three distinct sites, matching
	// Table I's count for lib60870.
	sites := map[string]bool{}
	for _, asdu := range [][]byte{
		{typeMSpNa, 1},
		{typeMSpNa, 1, 6, 0},
		{typeCSeNb, 5, 6, 0, 1, 0, 0x04, 0x00, 0x00, 0x64, 0x00, 0x00},
	} {
		s := New()
		r := executor.NewInProc(s)
		resetLink(r)
		res, _ := r.Run(varFrameRaw(asdu))
		if res.Outcome != executor.Crash {
			t.Fatalf("asdu %x did not crash", asdu)
		}
		sites[res.Fault.Site] = true
	}
	if len(sites) != 3 {
		t.Fatalf("distinct fault sites = %d, want 3 (%v)", len(sites), sites)
	}
}

func TestUnknownTypeRejectedBeforeHeaderReads(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	resetLink(r)
	// Unknown type id with a short ASDU must NOT crash: the type check
	// precedes the unchecked header reads.
	if res, _ := r.Run(varFrameRaw([]byte{0x7F, 1})); res.Outcome != executor.OK {
		t.Fatalf("unknown type crashed: %v", res.Fault)
	}
}

func TestScaledValuesStored(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	resetLink(r)
	asdu := []byte{typeMMeNb, 1, 3, 0, 1, 0, 0x05, 0x00, 0x00, 0x2C, 0x01, 0x00}
	r.Run(varFrameRaw(asdu))
	if s.scaled[5] != 300 {
		t.Fatalf("scaled[5] = %d", s.scaled[5])
	}
}

func TestSetpointValidPath(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	resetLink(r)
	asdu := []byte{typeCSeNb, 1, 6, 0, 1, 0, 0x06, 0x00, 0x00, 0x0A, 0x00, 0x00}
	if res, _ := r.Run(varFrameRaw(asdu)); res.Outcome != executor.OK {
		t.Fatalf("valid setpoint crashed: %v", res.Fault)
	}
	if s.setpoints[6] != 10 {
		t.Fatalf("setpoints[6] = %d", s.setpoints[6])
	}
	// Select bit: skip execution.
	asdu = []byte{typeCSeNb, 1, 6, 0, 1, 0, 0x07, 0x00, 0x00, 0x0A, 0x00, 0x80}
	r.Run(varFrameRaw(asdu))
	if s.setpoints[7] != 0 {
		t.Fatal("select-only setpoint executed")
	}
}

func TestRawModelCracksFineFrames(t *testing.T) {
	// The coarse-grained model must crack frames generated by the
	// fine-grained ones — that is how cross-model puzzle donation gets
	// whole-ASDU material.
	models := CS101Models()
	raw := models[0]
	if raw.Name != "RawVariableFrame" {
		t.Fatalf("model order changed: %s", raw.Name)
	}
	for _, m := range models[5:] { // variable-frame models
		pkt := m.Generate().Bytes()
		if _, err := raw.Crack(pkt); err != nil {
			t.Fatalf("raw model cannot crack %s frame: %v", m.Name, err)
		}
	}
}

func TestCOTRecorded(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	resetLink(r)
	asdu := []byte{typeCIcNa, 1, 6, 0, 1, 0, 0x00, 0x00, 0x00, 0x14}
	r.Run(varFrameRaw(asdu))
	if s.lastCOT != 6 {
		t.Fatalf("lastCOT = %d", s.lastCOT)
	}
}
