package pit

import (
	"io"
	"strings"
	"testing"

	"repro/internal/datamodel"
)

const samplePit = `
<Pit>
  <DataModel name="ReadHoldingRegisters">
    <Number name="fc" size="8" value="3" token="true"/>
    <Number name="len" size="16">
      <Relation type="size" of="body"/>
    </Number>
    <Block name="body">
      <Number name="addr" size="16" value="0"/>
      <Blob name="data" minSize="0" maxSize="32" value="0102"/>
    </Block>
    <Number name="crc" size="16" endian="little">
      <Fixup class="Crc16Modbus" over="fc,len,body"/>
    </Number>
  </DataModel>
  <DataModel name="WithChoice">
    <Choice name="cmd">
      <Block name="a"><Number name="opA" size="8" value="1" token="true"/></Block>
      <Block name="b"><Number name="opB" size="8" value="2" token="true"/></Block>
    </Choice>
  </DataModel>
  <DataModel name="WithArray">
    <Number name="n" size="8"><Relation type="count" of="items"/></Number>
    <Array name="items" maxCount="5">
      <Number name="item" size="16" legal="1,2,0x10"/>
    </Array>
  </DataModel>
</Pit>`

// parseModels is the data-model half of ParseDocument.
func parseModels(r io.Reader) ([]*datamodel.Model, error) {
	doc, err := ParseDocument(r)
	if err != nil {
		return nil, err
	}
	return doc.Models, nil
}

func TestParseSample(t *testing.T) {
	models, err := parseModels(strings.NewReader(samplePit))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(models) != 3 {
		t.Fatalf("models = %d", len(models))
	}
	m := models[0]
	if m.Name != "ReadHoldingRegisters" {
		t.Fatalf("name = %s", m.Name)
	}
	if fc := m.Fields[0]; !fc.Token || fc.Default != 3 {
		t.Fatalf("opcode field = %+v, want token 3", fc)
	}
	// Generated instance must be internally consistent and re-crackable.
	n := m.Generate()
	if !m.VerifyFixups(n) {
		t.Fatal("generated pit model instance fails verification")
	}
	if _, err := m.Crack(n.Bytes()); err != nil {
		t.Fatalf("round trip: %v", err)
	}
}

func TestParsedEndianness(t *testing.T) {
	models, _ := parseModels(strings.NewReader(samplePit))
	var crc *datamodel.Chunk
	var find func(c *datamodel.Chunk)
	for _, f := range models[0].Fields {
		find = func(c *datamodel.Chunk) {
			if c.Name == "crc" {
				crc = c
			}
			for _, ch := range c.Children {
				find(ch)
			}
		}
		find(f)
	}
	if crc == nil || crc.Endian != datamodel.Little {
		t.Fatal("crc should be little-endian")
	}
	if crc.Fix == nil || crc.Fix.Kind != datamodel.CRC16Modbus || len(crc.Fix.Over) != 3 {
		t.Fatalf("fixup = %+v", crc.Fix)
	}
}

func TestParsedLegalSet(t *testing.T) {
	models, _ := parseModels(strings.NewReader(samplePit))
	m := models[2]
	inst, err := m.Crack([]byte{2, 0, 1, 0, 0x10})
	if err != nil {
		t.Fatalf("crack: %v", err)
	}
	if len(inst.Find("items").Children) != 2 {
		t.Fatal("array count wrong")
	}
	if _, err := m.Crack([]byte{1, 0, 9}); err == nil {
		t.Fatal("value 9 violates legal set; crack should fail")
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"not xml":          `<<<`,
		"no models":        `<Pit></Pit>`,
		"unnamed model":    `<Pit><DataModel><Number name="a" size="8"/></DataModel></Pit>`,
		"bad number size":  `<Pit><DataModel name="m"><Number name="a" size="12"/></DataModel></Pit>`,
		"bad legal":        `<Pit><DataModel name="m"><Number name="a" size="8" legal="x"/></DataModel></Pit>`,
		"unknown element":  `<Pit><DataModel name="m"><Widget name="a"/></DataModel></Pit>`,
		"bad relation":     `<Pit><DataModel name="m"><Number name="a" size="8"><Relation type="zap" of="a"/></Number></DataModel></Pit>`,
		"relation no of":   `<Pit><DataModel name="m"><Number name="a" size="8"><Relation type="size"/></Number></DataModel></Pit>`,
		"unknown fixup":    `<Pit><DataModel name="m"><Number name="a" size="8"><Fixup class="Magic" over="a"/></Number></DataModel></Pit>`,
		"fixup no over":    `<Pit><DataModel name="m"><Number name="a" size="8"><Fixup class="Crc32" over=""/></Number></DataModel></Pit>`,
		"dangling rel":     `<Pit><DataModel name="m"><Number name="a" size="8"><Relation type="size" of="ghost"/></Number></DataModel></Pit>`,
		"bad hex":          `<Pit><DataModel name="m"><Blob name="a" size="2" value="zz"/></DataModel></Pit>`,
		"array two proto":  `<Pit><DataModel name="m"><Array name="a"><Number name="x" size="8"/><Number name="y" size="8"/></Array></DataModel></Pit>`,
		"top-level fixup":  `<Pit><DataModel name="m"><Fixup class="Crc32" over="x"/></DataModel></Pit>`,
		"bad blob minsize": `<Pit><DataModel name="m"><Blob name="a" minSize="q"/></DataModel></Pit>`,
	}
	for name, doc := range cases {
		if _, err := parseModels(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestHexValueParsing(t *testing.T) {
	models, err := parseModels(strings.NewReader(`<Pit><DataModel name="m"><Blob name="a" size="3" value="0a 0b 0c"/></DataModel></Pit>`))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	n := models[0].Generate()
	got := n.Find("a").Data
	if got[0] != 0x0a || got[1] != 0x0b || got[2] != 0x0c {
		t.Fatalf("blob default = %x", got)
	}
}

func TestHexNumberValue(t *testing.T) {
	models, err := parseModels(strings.NewReader(`<Pit><DataModel name="m"><Number name="a" size="16" value="0xABCD"/></DataModel></Pit>`))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if models[0].Generate().Find("a").Uint() != 0xABCD {
		t.Fatal("hex number value wrong")
	}
}

func TestParseReader(t *testing.T) {
	models, err := parseModels(strings.NewReader(samplePit))
	if err != nil || len(models) != 3 {
		t.Fatalf("parseModels(reader) = %d models, %v", len(models), err)
	}
}
