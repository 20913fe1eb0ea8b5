package iec61850

import (
	"testing"

	"repro/internal/coverage"
	"repro/internal/executor"
	"repro/internal/targets"
)

// modelByName fetches a model from the set.
func modelByName(t *testing.T, name string) packetGen {
	t.Helper()
	for _, m := range IEC61850Models() {
		if m.Name == name {
			return packetGen{pkt: m.Generate().Bytes()}
		}
	}
	t.Fatalf("no model %q", name)
	return packetGen{}
}

type packetGen struct{ pkt []byte }

// associate drives a fresh server to the associated state via the model
// defaults.
func associate(t *testing.T, r *executor.InProc) {
	t.Helper()
	r.Run(modelByName(t, "COTPConnect").pkt)
	r.Run(modelByName(t, "SessionInitiate").pkt)
}

func TestRegistered(t *testing.T) {
	tgt, err := targets.New("libiec61850")
	if err != nil {
		t.Fatal(err)
	}
	if tgt.Name() != "libiec61850" {
		t.Fatalf("name = %s", tgt.Name())
	}
	if len(tgt.Models()) != 18 {
		t.Fatalf("models = %d", len(tgt.Models()))
	}
}

func TestModelsSelfConsistent(t *testing.T) {
	for _, m := range IEC61850Models() {
		pkt := m.Generate().Bytes()
		if _, err := m.Crack(pkt); err != nil {
			t.Fatalf("model %s round trip: %v", m.Name, err)
		}
	}
}

func TestAssociationViaModels(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	if s.associated {
		t.Fatal("fresh server associated")
	}
	associate(t, r)
	if !s.associated {
		t.Fatal("model defaults did not associate")
	}
	r.Run(modelByName(t, "Conclude").pkt)
	if s.associated {
		t.Fatal("conclude ignored")
	}
}

func TestAllModelDefaultsSafe(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	for _, m := range IEC61850Models() {
		if res, _ := r.Run(m.Generate().Bytes()); res.Outcome == executor.Crash {
			t.Fatalf("default %s crashed: %v", m.Name, res.Fault)
		}
	}
}

func TestReadVariableCounts(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	associate(t, r)
	r.Run(modelByName(t, "ReadVariable").pkt)
	if s.reads != 1 {
		t.Fatalf("reads = %d", s.reads)
	}
	// NVL read expands both members.
	r.Run(modelByName(t, "ReadNVL").pkt)
	if s.reads != 3 {
		t.Fatalf("reads after NVL = %d", s.reads)
	}
}

func TestWriteVariable(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	associate(t, r)
	r.Run(modelByName(t, "WriteVariable").pkt)
	if s.writes != 1 {
		t.Fatalf("writes = %d", s.writes)
	}
	attr := s.domains["simpleIOGenericIO"]["GGIO1$SP$NamPlt$vendor"]
	if string(attr.value) != "ACME" {
		t.Fatalf("written value = %q", attr.value)
	}
}

func TestWriteReadOnlyRefused(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	associate(t, r)
	// Build a write against a read-only attribute by patching the model
	// default: reuse WriteVariable but point it at a ST attribute.
	for _, m := range IEC61850Models() {
		if m.Name != "WriteVariable" {
			continue
		}
		inst := m.Generate()
		item := inst.Find("varItemVal")
		item.Data = []byte("GGIO1$ST$Ind1$stVal")
		m.ApplyFixups(inst)
		r.Run(inst.Bytes())
	}
	if s.writes != 0 {
		t.Fatal("read-only attribute written")
	}
}

func TestWriteTypeMismatchRefused(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	associate(t, r)
	for _, m := range IEC61850Models() {
		if m.Name != "WriteVariable" {
			continue
		}
		inst := m.Generate()
		// vendor is a string attribute (0x8A); send a boolean tag.
		inst.Find("valueTag").SetUint(0x83)
		m.ApplyFixups(inst)
		r.Run(inst.Bytes())
	}
	if s.writes != 0 {
		t.Fatal("type-mismatched write accepted")
	}
}

func TestDefineAndDeleteNVL(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	associate(t, r)
	base := len(s.nvls)
	r.Run(modelByName(t, "DefineNVL").pkt)
	if len(s.nvls) != base+1 {
		t.Fatalf("NVL not defined (count %d)", len(s.nvls))
	}
	// Defining the same list again: object-exists.
	r.Run(modelByName(t, "DefineNVL").pkt)
	if len(s.nvls) != base+1 {
		t.Fatal("duplicate NVL defined")
	}
	r.Run(modelByName(t, "DeleteNVL").pkt)
	if len(s.nvls) != base {
		t.Fatal("NVL not deleted")
	}
}

func TestPreconfiguredNVLProtected(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	associate(t, r)
	for _, m := range IEC61850Models() {
		if m.Name != "DeleteNVL" {
			continue
		}
		inst := m.Generate()
		inst.Find("nvlItemVal").Data = []byte("Events")
		m.ApplyFixups(inst)
		r.Run(inst.Bytes())
	}
	if len(s.nvls) != 1 {
		t.Fatal("config-defined NVL deleted")
	}
}

func TestConfirmedRequiresAssociation(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	r.Run(modelByName(t, "COTPConnect").pkt)
	// Jump straight to a read without initiate: dropped.
	r.Run(modelByName(t, "ReadVariable").pkt)
	if s.reads != 0 {
		t.Fatal("read served without association")
	}
}

func TestSessionRequiredForData(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	r.Run(modelByName(t, "COTPConnect").pkt)
	// DATA SPDU before session CONNECT: dropped at the session layer.
	r.Run(modelByName(t, "Identify").pkt)
	if s.associated {
		t.Fatal("state moved without session")
	}
}

func TestBERLongFormLengths(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	associate(t, r)
	tr := coverage.NewTracer()
	// Hand-encode a confirmed identify with a 0x81 long-form length.
	mms := []byte{0xA0, 0x81, 0x07, 0x02, 0x01, 0x05, 0x82, 0x81, 0x00}
	// Build TPKT+COTP+session around it.
	spdu := append([]byte{0x01, 0x00, 0x01, 0x00}, mms...)
	cotp := append([]byte{2, 0xF0, 0x80}, spdu...)
	pkt := append([]byte{0x03, 0x00, 0x00, byte(4 + len(cotp))}, cotp...)
	s.Handle(tr, pkt)
	// No crash and the identify branch taken; verify via a fresh trace
	// signature difference against a garbage long-form.
	res, _ := r.Run(pkt)
	if res.Outcome != executor.OK {
		t.Fatalf("long-form identify crashed: %v", res.Fault)
	}
}

func TestMalformedBERSafe(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	associate(t, r)
	wrap := func(mms []byte) []byte {
		spdu := append([]byte{0x01, 0x00, 0x01, 0x00}, mms...)
		cotp := append([]byte{2, 0xF0, 0x80}, spdu...)
		return append([]byte{0x03, 0x00, 0x00, byte(4 + len(cotp))}, cotp...)
	}
	for _, mms := range [][]byte{
		{},
		{0xA0},
		{0xA0, 0x05, 0x02},                   // length beyond data
		{0xA0, 0x83, 0x00, 0x00, 0x00},       // unsupported length form
		{0xA0, 0x82, 0xFF},                   // truncated long form
		{0xA0, 0x03, 0x02, 0x01},             // truncated invoke
		{0xA0, 0x04, 0x02, 0x02, 0x01, 0x05}, // invoke ok, missing service
		{0xA0, 0x06, 0x02, 0x01, 0x05, 0xA4, 0x01, 0xFF}, // read with garbage spec
	} {
		if res, _ := r.Run(wrap(mms)); res.Outcome != executor.OK {
			t.Fatalf("malformed MMS crashed: %x -> %v", mms, res.Fault)
		}
	}
}

func TestGetNameListVariants(t *testing.T) {
	s := New()
	r := executor.NewInProc(s)
	associate(t, r)
	for _, name := range []string{"GetNameListDomains", "GetNameListVariables", "Status", "Identify", "GetVarAttributes", "GetNVLAttributes"} {
		if res, _ := r.Run(modelByName(t, name).pkt); res.Outcome != executor.OK {
			t.Fatalf("%s crashed: %v", name, res.Fault)
		}
	}
}

func TestGetNameListDomainScopeReachesListing(t *testing.T) {
	// The domain-scope model must take a different trace from the
	// VMD-scope model — it walks the per-variable listing loop.
	s := New()
	r := executor.NewInProc(s)
	associate(t, r)
	r.Run(modelByName(t, "GetNameListVariables").pkt)
	a := r.Tracer().PathHash()
	r.Run(modelByName(t, "GetNameListDomains").pkt)
	if b := r.Tracer().PathHash(); a == b {
		t.Fatal("domain and vmd scopes traced identically; domain listing not reached")
	}
}

func TestNoSeededCrashesUnderNoise(t *testing.T) {
	// libiec61850 has no Table I entries; structured noise must not crash.
	s := New()
	r := executor.NewInProc(s)
	associate(t, r)
	for i := 0; i < 3000; i++ {
		mms := []byte{0xA0, byte(i % 0x30), 0x02, 0x01, byte(i),
			byte(0x80 + i%0x30), byte(i % 7), byte(i), byte(i >> 3), byte(i >> 5)}
		spdu := append([]byte{0x01, 0x00, 0x01, 0x00}, mms...)
		cotp := append([]byte{2, 0xF0, 0x80}, spdu...)
		pkt := append([]byte{0x03, 0x00, 0x00, byte(4 + len(cotp))}, cotp...)
		if res, _ := r.Run(pkt); res.Outcome == executor.Crash {
			t.Fatalf("noise crashed: %x -> %v", pkt, res.Fault)
		}
	}
}

func TestBlockCountLargestOfTargets(t *testing.T) {
	// The paper's Fig. 4 scale ordering depends on libiec61850 being the
	// largest target; its instrumented-block allocation reflects that.
	if len(New().id) <= 256 {
		t.Fatal("libiec61850 should allocate the most instrumentation blocks")
	}
}
