// Custompit: fuzz a user-defined protocol described by an XML Pit file —
// the workflow of §V-A, where the paper reuses existing Peach pits.
//
// The protocol here is a small telemetry service with three packet types
// (a "function code" field, §III) that share chunk construction rules, and
// a CRC32 integrity constraint (Fig. 1's Crc32Fixup). The target is
// implemented in this file and instrumented by hand, showing how any Go
// packet parser can be hooked up.
//
//	go run ./examples/custompit
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"repro/peachstar"
)

// telemetryPit describes the wire format: opcode, length-prefixed body,
// trailing CRC32 over everything before it.
const telemetryPit = `
<Pit>
  <DataModel name="SensorReport">
    <Number name="op" size="8" value="1" token="true"/>
    <Number name="len" size="16"><Relation type="size" of="body"/></Number>
    <Block name="body">
      <Number name="sensorId" size="16" value="7"/>
      <Blob name="readings" minSize="2" maxSize="24" value="0b01"/>
    </Block>
    <Number name="crc" size="32"><Fixup class="Crc32" over="op,len,body"/></Number>
  </DataModel>
  <DataModel name="SensorConfig">
    <Number name="op" size="8" value="2" token="true"/>
    <Number name="len" size="16"><Relation type="size" of="body"/></Number>
    <Block name="body">
      <Number name="sensorId" size="16" value="7"/>
      <Number name="interval" size="16" value="1000"/>
    </Block>
    <Number name="crc" size="32"><Fixup class="Crc32" over="op,len,body"/></Number>
  </DataModel>
  <DataModel name="SensorQuery">
    <Number name="op" size="8" value="3" token="true"/>
    <Number name="len" size="16"><Relation type="size" of="body"/></Number>
    <Block name="body">
      <Number name="sensorId" size="16" value="7"/>
    </Block>
    <Number name="crc" size="32"><Fixup class="Crc32" over="op,len,body"/></Number>
  </DataModel>
</Pit>`

// telemetryTarget is a hand-instrumented server for the protocol above. It
// registers sensors on config packets; a report for a configured sensor
// with more than 8 readings walks a deliberately deep branch.
type telemetryTarget struct {
	models     []*peachstar.Model
	configured map[uint16]bool
	blocks     []peachstar.BlockID
}

func newTelemetryTarget(models []*peachstar.Model) *telemetryTarget {
	return &telemetryTarget{
		models:     models,
		configured: map[uint16]bool{},
		blocks:     peachstar.Blocks("telemetry", 32),
	}
}

func (t *telemetryTarget) Name() string               { return "telemetry" }
func (t *telemetryTarget) Models() []*peachstar.Model { return t.models }

func (t *telemetryTarget) Handle(tr *peachstar.Tracer, pkt []byte) {
	hit := func(i int) { tr.Hit(t.blocks[i]) }
	hit(0)
	if len(pkt) < 7 {
		hit(1)
		return
	}
	op := pkt[0]
	ln := int(pkt[1])<<8 | int(pkt[2])
	if 3+ln+4 != len(pkt) {
		hit(2)
		return
	}
	body := pkt[3 : 3+ln]
	// CRC check (the integrity gate File Fixup keeps satisfied).
	var crc uint32
	for _, b := range pkt[len(pkt)-4:] {
		crc = crc<<8 | uint32(b)
	}
	if crc != crc32of(pkt[:len(pkt)-4]) {
		hit(3)
		return
	}
	if len(body) < 2 {
		hit(4)
		return
	}
	sensor := uint16(body[0])<<8 | uint16(body[1])
	switch op {
	case 2: // config
		hit(5)
		if len(body) >= 4 {
			hit(6)
			t.configured[sensor] = true
		}
	case 1: // report
		hit(7)
		if t.configured[sensor] {
			hit(8)
			if len(body) > 10 {
				hit(9) // deep: configured sensor with a long reading set
			}
		}
	case 3: // query
		hit(10)
		if t.configured[sensor] {
			hit(11)
		}
	default:
		hit(12)
	}
}

func crc32of(data []byte) uint32 {
	return uint32(peachstar.Checksum(peachstar.CRC32IEEE, data))
}

func main() {
	doc, err := peachstar.ParsePitDocument(strings.NewReader(telemetryPit))
	if err != nil {
		log.Fatal(err)
	}
	models := doc.Models
	fmt.Printf("parsed %d data models from the pit file\n", len(models))

	target := newTelemetryTarget(models)
	campaign, err := peachstar.NewCampaign(peachstar.Options{
		Target:   target,
		Strategy: peachstar.PeachStar,
		Seed:     7,
	})
	if err != nil {
		log.Fatal(err)
	}
	run, err := campaign.Start(context.Background(), peachstar.RunConfig{Execs: 20000})
	if err != nil {
		log.Fatal(err)
	}
	if err := run.Wait(); err != nil {
		log.Fatal(err)
	}

	s := campaign.Stats()
	fmt.Printf("after %d execs: %d paths, %d edges, %d puzzles in the corpus\n",
		s.Execs, s.Paths, s.Edges, s.CorpusPuzzles)
	fmt.Println("\ncorpus construction-rule signatures (what packet cracking learned):")
	for _, sig := range campaign.CorpusSignatures() {
		fmt.Println("  ", sig)
	}
}
