package peachstar

import (
	"strings"
	"testing"
)

func TestTargetNamesListsSix(t *testing.T) {
	names := TargetNames()
	if len(names) != 6 {
		t.Fatalf("targets = %v", names)
	}
	for _, want := range []string{"libmodbus", "IEC104", "libiec61850", "lib60870", "libiccp", "opendnp3"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("missing target %s in %v", want, names)
		}
	}
}

func TestNewTargetUnknown(t *testing.T) {
	if _, err := NewTarget("nope"); err == nil {
		t.Fatal("unknown target should error")
	}
}

func TestNewCampaignValidation(t *testing.T) {
	if _, err := NewCampaign(Options{}); err == nil {
		t.Fatal("missing target should error")
	}
}

func TestCampaignRunAndStats(t *testing.T) {
	tgt, err := NewTarget("IEC104")
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCampaign(Options{Target: tgt, Strategy: PeachStar, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	runExecs(t, c, 1500)
	s := c.Stats()
	if s.Execs < 1500 || s.Paths == 0 || s.Edges == 0 {
		t.Fatalf("stats = %+v", s)
	}
	if s.CorpusPuzzles == 0 {
		t.Fatal("peach* corpus empty after run")
	}
	if len(c.CorpusSignatures()) == 0 {
		t.Fatal("no corpus signatures")
	}
}

func TestCampaignCrashRecords(t *testing.T) {
	tgt, _ := NewTarget("lib60870")
	c, err := NewCampaign(Options{Target: tgt, Strategy: PeachStar, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	runExecs(t, c, 12000)
	for _, r := range c.Crashes() {
		if r.Site == "" || len(r.Example) == 0 || r.Count == 0 {
			t.Fatalf("malformed crash record %+v", r)
		}
	}
}

func TestModelsOverride(t *testing.T) {
	tgt, _ := NewTarget("libmodbus")
	doc, err := ParsePitDocument(strings.NewReader(`
<Pit>
  <DataModel name="OnlyReads">
    <Number name="txn" size="16" value="1"/>
    <Number name="proto" size="16" value="0" token="true"/>
    <Number name="length" size="16"><Relation type="size" of="tail"/></Number>
    <Block name="tail">
      <Number name="unit" size="8" value="0xFF"/>
      <Number name="fc" size="8" value="3" token="true"/>
      <Number name="addr" size="16" value="0"/>
      <Number name="qty" size="16" value="4"/>
    </Block>
  </DataModel>
</Pit>`))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCampaign(Options{Target: tgt, Models: doc.Models, Strategy: PeachStar, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	runExecs(t, c, 500)
	if c.Stats().Paths == 0 {
		t.Fatal("custom pit campaign found nothing")
	}
}

func TestBuildersRoundTrip(t *testing.T) {
	m, err := NewModel("demo",
		Num("op", 1, 9).AsToken(),
		Num("len", 2, 0).WithRel(SizeOf, "body", 0),
		Blk("body",
			// A variable chunk that is not last in its region needs
			// its own size relation for cracking, as in Peach.
			Num("nameLen", 1, 0).WithRel(SizeOf, "name", 0),
			StrVar("name", 1, 8, "abc"),
			Bytes("pad", 2, []byte{0, 0}),
		),
		Num("crc", 4, 0).WithFix(CRC32IEEE, "op", "len", "body"),
	)
	if err != nil {
		t.Fatal(err)
	}
	pkt := m.Generate().Bytes()
	if _, err := m.Crack(pkt); err != nil {
		t.Fatalf("facade-built model round trip: %v", err)
	}
	sig := RuleSignature(Num("addr", 2, 0))
	if !strings.Contains(sig, "addr") {
		t.Fatalf("signature = %q", sig)
	}
}

// TestNewModelRejectsDanglingRelation: a malformed user model is an error
// from the library, never a panic.
func TestNewModelRejectsDanglingRelation(t *testing.T) {
	m, err := NewModel("bad", Num("len", 2, 0).WithRel(SizeOf, "nowhere", 0), Bytes("body", 2, nil))
	if err == nil || m != nil {
		t.Fatalf("NewModel = (%v, %v), want an error for a relation of a missing chunk", m, err)
	}
}

func TestChecksumExport(t *testing.T) {
	if Checksum(Sum8, []byte{1, 2, 3}) != 6 {
		t.Fatal("checksum export broken")
	}
	if Checksum(CRC16Modbus, []byte{0x01, 0x03, 0x00, 0x00, 0x00, 0x0A}) != 0xCDC5 {
		t.Fatal("modbus CRC export broken")
	}
}

func TestBlocksExportDeterministic(t *testing.T) {
	a := Blocks("x", 4)
	b := Blocks("x", 4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Blocks not deterministic")
		}
	}
}

func TestStrategiesDiffer(t *testing.T) {
	if Peach == PeachStar {
		t.Fatal("strategy constants collide")
	}
	if Peach.String() != "Peach" || PeachStar.String() != "Peach*" {
		t.Fatalf("strategy names: %s / %s", Peach, PeachStar)
	}
}
