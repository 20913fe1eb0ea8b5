package iec61850

import (
	"testing"

	"repro/internal/executor"
)

// fileService hand-encodes a confirmed request with a high-tag service.
func fileService(invoke byte, svcHi, svcLo byte, body []byte) []byte {
	svc := append([]byte{svcHi, svcLo, byte(len(body))}, body...)
	inner := append([]byte{0x02, 0x01, invoke}, svc...)
	mms := append([]byte{0xA0, byte(len(inner))}, inner...)
	spdu := append([]byte{0x01, 0x00, 0x01, 0x00}, mms...)
	cotp := append([]byte{2, 0xF0, 0x80}, spdu...)
	return append([]byte{0x03, 0x00, 0x00, byte(4 + len(cotp))}, cotp...)
}

// openBody encodes the fileOpen parameter: [0]{ GraphicString(name) }.
func openBody(name string) []byte {
	g := append([]byte{0x19, byte(len(name))}, name...)
	return append([]byte{0xA0, byte(len(g))}, g...)
}

func TestFileOpenReadClose(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	associate(t, r)
	res, _ := r.Run(fileService(1, 0xBF, 0x48, openBody("COMTRADE/R1.DAT")))
	if res.Outcome != executor.OK {
		t.Fatalf("fileOpen crashed: %v", res.Fault)
	}
	if len(s.fs.frsm) != 1 {
		t.Fatalf("open files = %d", len(s.fs.frsm))
	}
	// R1.DAT is 90 bytes: three reads (32+32+26) reach EOF.
	for i := 0; i < 3; i++ {
		r.Run(fileService(2, 0xBF, 0x49, []byte{0x02, 0x01, 0x01}))
	}
	if s.fs.frsm[1].pos != 90 {
		t.Fatalf("frsm position = %d", s.fs.frsm[1].pos)
	}
	r.Run(fileService(3, 0xBF, 0x4A, []byte{0x02, 0x01, 0x01}))
	if len(s.fs.frsm) != 0 {
		t.Fatal("fileClose did not release the FRSM")
	}
}

func TestFileOpenValidation(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	associate(t, r)
	for _, body := range [][]byte{
		openBody("no-such-file"),
		openBody("../etc/passwd"), // traversal screened
		openBody(""),              // empty body below fails GraphicString parse
		{0xA0, 0x00},              // empty name sequence
	} {
		if res, _ := r.Run(fileService(1, 0xBF, 0x48, body)); res.Outcome != executor.OK {
			t.Fatalf("fileOpen %x crashed: %v", body, res.Fault)
		}
	}
	if len(s.fs.frsm) != 0 {
		t.Fatal("invalid open created an FRSM")
	}
}

func TestFileOpenLimit(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	associate(t, r)
	for i := 0; i < frsmLimit+2; i++ {
		r.Run(fileService(byte(i), 0xBF, 0x48, openBody("model.icd")))
	}
	if len(s.fs.frsm) != frsmLimit {
		t.Fatalf("open files = %d, want limit %d", len(s.fs.frsm), frsmLimit)
	}
}

func TestFileReadInvalidFRSM(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	associate(t, r)
	if res, _ := r.Run(fileService(1, 0xBF, 0x49, []byte{0x02, 0x01, 0x09})); res.Outcome != executor.OK {
		t.Fatalf("invalid frsm read crashed: %v", res.Fault)
	}
}

func TestFileDirectory(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	associate(t, r)
	a, _ := r.Run(fileService(1, 0xBF, 0x4D, openBody("COMTRADE")))
	aSig := r.Tracer().PathHash()
	b, _ := r.Run(fileService(2, 0xBF, 0x4D, openBody("NOPE")))
	if a.Outcome != executor.OK || b.Outcome != executor.OK {
		t.Fatal("file directory crashed")
	}
	if aSig == r.Tracer().PathHash() {
		t.Fatal("matching and empty directory listings should trace differently")
	}
}

func TestHighTagMalformedSafe(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	associate(t, r)
	wrap := func(mms []byte) []byte {
		spdu := append([]byte{0x01, 0x00, 0x01, 0x00}, mms...)
		cotp := append([]byte{2, 0xF0, 0x80}, spdu...)
		return append([]byte{0x03, 0x00, 0x00, byte(4 + len(cotp))}, cotp...)
	}
	for _, mms := range [][]byte{
		{0xA0, 0x04, 0x02, 0x01, 0x05, 0xBF},             // truncated high tag
		{0xA0, 0x05, 0x02, 0x01, 0x05, 0xBF, 0xC8},       // multi-octet tag number
		{0xA0, 0x05, 0x02, 0x01, 0x05, 0xBF, 0x48},       // high tag without length
		{0xA0, 0x06, 0x02, 0x01, 0x05, 0xBF, 0x7F, 0x00}, // unknown file service
	} {
		if res, _ := r.Run(wrap(mms)); res.Outcome != executor.OK {
			t.Fatalf("malformed high-tag PDU crashed: %x -> %v", mms, res.Fault)
		}
	}
}

func TestFileModelsRoundTrip(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	associate(t, r)
	for _, m := range IEC61850Models() {
		pkt := m.Generate().Bytes()
		if _, err := m.Crack(pkt); err != nil {
			t.Fatalf("model %s round trip: %v", m.Name, err)
		}
		if res, _ := r.Run(pkt); res.Outcome == executor.Crash {
			t.Fatalf("default %s crashed: %v", m.Name, res.Fault)
		}
	}
}

func TestFileOpenModelEffective(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	associate(t, r)
	for _, m := range IEC61850Models() {
		if m.Name != "FileOpen" {
			continue
		}
		r.Run(m.Generate().Bytes())
		if len(s.fs.frsm) != 1 {
			t.Fatal("FileOpen model default did not open a file")
		}
		return
	}
	t.Fatal("FileOpen model missing")
}

func TestFileNameScreening(t *testing.T) {
	cases := map[string]bool{
		"model.icd":       true,
		"COMTRADE/R1.CFG": true,
		"a/../b":          false,
		"bad name":        false,
		"":                false,
	}
	for name, want := range cases {
		if _, got := fileName([]byte(name)); got != want {
			t.Errorf("fileName(%q) = %v, want %v", name, got, want)
		}
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	if _, ok := fileName(long); ok {
		t.Error("over-long file name accepted")
	}
}
