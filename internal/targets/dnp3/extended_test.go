package dnp3

import (
	"testing"

	"repro/internal/executor"
)

func TestFreezeCounters(t *testing.T) {
	o := New()
	r := executor.NewInProc(o)
	res, _ := r.Run(buildFrame(app(afFreeze, grCounter, 1, 0x00, 2, 5)))
	if res.Outcome != executor.OK {
		t.Fatalf("freeze crashed: %v", res.Fault)
	}
	for i := 2; i <= 5; i++ {
		if o.ext.frozen[i] != uint32(i) {
			t.Fatalf("frozen[%d] = %d", i, o.ext.frozen[i])
		}
	}
	if o.counters[3] != 3 {
		t.Fatal("plain freeze must not clear")
	}
}

func TestFreezeAndClear(t *testing.T) {
	o := New()
	r := executor.NewInProc(o)
	r.Run(buildFrame(app(afFreezeClear, grCounter, 1, 0x06)))
	for i := range o.counters {
		if o.counters[i] != 0 {
			t.Fatalf("counter %d not cleared", i)
		}
		if o.ext.frozen[i] != uint32(i) {
			t.Fatalf("frozen[%d] = %d", i, o.ext.frozen[i])
		}
	}
}

func TestFreezeWrongGroupIgnored(t *testing.T) {
	o := New()
	r := executor.NewInProc(o)
	r.Run(buildFrame(app(afFreeze, grBinaryInput, 1, 0x06)))
	for i := range o.ext.frozen {
		if o.ext.frozen[i] != 0 {
			t.Fatal("freeze of non-counter group had effect")
		}
	}
}

func TestWriteOctetString(t *testing.T) {
	o := New()
	r := executor.NewInProc(o)
	// g110v3 (3-byte string), qualifier 0x17, count 1, index 4, "abc".
	res, _ := r.Run(buildFrame(app(afWrite, grOctetString, 3, 0x17, 1, 4, 'a', 'b', 'c')))
	if res.Outcome != executor.OK {
		t.Fatalf("octet write crashed: %v", res.Fault)
	}
	if string(o.ext.octet[4]) != "abc" {
		t.Fatalf("octet[4] = %q", o.ext.octet[4])
	}
	// Truncated data: refused safely.
	r.Run(buildFrame(app(afWrite, grOctetString, 9, 0x17, 1, 5, 'x')))
	if _, ok := o.ext.octet[5]; ok {
		t.Fatal("truncated octet string stored")
	}
	// Index out of range.
	r.Run(buildFrame(app(afWrite, grOctetString, 1, 0x17, 1, 99, 'z')))
	if _, ok := o.ext.octet[99]; ok {
		t.Fatal("out-of-range octet index stored")
	}
}

func TestClearRestartIIN(t *testing.T) {
	o := New()
	r := executor.NewInProc(o)
	if !o.ext.deviceRestart {
		t.Fatal("fresh outstation should flag device restart")
	}
	r.Run(buildFrame(app(afWrite, grIIN, 1, 0x00, 7, 7, 0)))
	if o.ext.deviceRestart {
		t.Fatal("IIN clear did not take")
	}
}

func TestAssignClass(t *testing.T) {
	o := New()
	r := executor.NewInProc(o)
	// Assign class 2 (g60v2) to binary inputs and counters.
	objs := []byte{
		grClassData, 2, 0x06,
		grBinaryInput, 0, 0x06,
		grCounter, 0, 0x06,
	}
	r.Run(buildFrame(app(afAssignClass, objs...)))
	if o.ext.classAssign[grBinaryInput] != 2 || o.ext.classAssign[grCounter] != 2 {
		t.Fatalf("class assignments = %v", o.ext.classAssign)
	}
	// Bad class header variation ignored.
	o2 := New()
	r2 := executor.NewInProc(o2)
	r2.Run(buildFrame(app(afAssignClass, grClassData, 9, 0x06, grBinaryInput, 0, 0x06)))
	if len(o2.ext.classAssign) != 0 {
		t.Fatal("invalid class accepted")
	}
}

func TestReadFrozenCounters(t *testing.T) {
	o := New()
	r := executor.NewInProc(o)
	r.Run(buildFrame(app(afFreeze, grCounter, 1, 0x06)))
	res, _ := r.Run(buildFrame(app(afRead, grFrozenCounter, 1, 0x06)))
	if res.Outcome != executor.OK {
		t.Fatalf("frozen read crashed: %v", res.Fault)
	}
}

func TestExtendedModelsRoundTrip(t *testing.T) {
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

func TestWriteOctetStringModelEffective(t *testing.T) {
	o := New()
	r := executor.NewInProc(o)
	for _, m := range DNP3Models() {
		if m.Name != "WriteOctetString" {
			continue
		}
		r.Run(m.Generate().Bytes())
		if string(o.ext.octet[0]) != "PS" {
			t.Fatalf("model default did not write octet string: %v", o.ext.octet)
		}
		return
	}
	t.Fatal("WriteOctetString model missing")
}
