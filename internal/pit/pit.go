// Package pit parses Pit files — the XML format specifications Peach (and
// therefore Peach*) consumes. The paper's evaluation "used the existing pit
// file of Peach" (§V-A); this package provides the equivalent input path for
// this reproduction, so that users can describe new protocols without
// writing Go.
//
// The dialect is a faithful subset of Peach 3 Pit semantics with a compact
// syntax:
//
//	<Pit>
//	  <DataModel name="ReadHoldingRegisters">
//	    <Number name="fc" size="8" value="3" token="true"/>
//	    <Number name="count" size="16" endian="big">
//	      <Relation type="size" of="body"/>
//	    </Number>
//	    <Block name="body">
//	      <Blob name="data" minSize="0" maxSize="32"/>
//	    </Block>
//	    <Number name="crc" size="16">
//	      <Fixup class="Crc16Modbus" over="fc,count,body"/>
//	    </Number>
//	  </DataModel>
//	</Pit>
//
// As in Peach, Number sizes are in bits (8/16/32/64); String/Blob sizes are
// in bytes.
package pit

import (
	"encoding/xml"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/datamodel"
)

// xmlPit mirrors the document root.
type xmlPit struct {
	XMLName     xml.Name        `xml:"Pit"`
	DataModels  []xmlChunk      `xml:"DataModel"`
	StateModels []xmlStateModel `xml:"StateModel"`
}

// xmlChunk is the recursive element form shared by all chunk kinds.
type xmlChunk struct {
	XMLName xml.Name
	Name    string `xml:"name,attr"`
	Size    string `xml:"size,attr"`
	MinSize string `xml:"minSize,attr"`
	MaxSize string `xml:"maxSize,attr"`
	Value   string `xml:"value,attr"`
	Endian  string `xml:"endian,attr"`
	Token   string `xml:"token,attr"`
	Legal   string `xml:"legal,attr"`
	MaxCnt  string `xml:"maxCount,attr"`

	Relation *xmlRelation `xml:"Relation"`
	Fixup    *xmlFixup    `xml:"Fixup"`

	Children []xmlChunk `xml:",any"`
}

type xmlRelation struct {
	Type   string `xml:"type,attr"`
	Of     string `xml:"of,attr"`
	Adjust string `xml:"adjust,attr"`
}

type xmlFixup struct {
	Class string `xml:"class,attr"`
	Over  string `xml:"over,attr"`
}

// decodePit unmarshals the XML root.
func decodePit(r io.Reader, doc *xmlPit) error {
	if err := xml.NewDecoder(r).Decode(doc); err != nil {
		return fmt.Errorf("pit: %w", err)
	}
	return nil
}

// convertModels validates and converts the document's data models.
func convertModels(doc *xmlPit) ([]*datamodel.Model, error) {
	if len(doc.DataModels) == 0 {
		return nil, fmt.Errorf("pit: document declares no DataModel")
	}
	var models []*datamodel.Model
	for i := range doc.DataModels {
		dm := &doc.DataModels[i]
		if dm.Name == "" {
			return nil, fmt.Errorf("pit: DataModel %d has no name", i)
		}
		var fields []*datamodel.Chunk
		for j := range dm.Children {
			c, err := convert(&dm.Children[j])
			if err != nil {
				return nil, fmt.Errorf("pit: model %s: %w", dm.Name, err)
			}
			fields = append(fields, c)
		}
		m := &datamodel.Model{Name: dm.Name, Fields: fields}
		if err := m.Validate(); err != nil {
			return nil, fmt.Errorf("pit: %w", err)
		}
		models = append(models, m)
	}
	return models, nil
}

// convert maps one XML element to a datamodel chunk.
func convert(x *xmlChunk) (*datamodel.Chunk, error) {
	switch x.XMLName.Local {
	case "Number":
		bits, err := atoiDefault(x.Size, 0)
		if err != nil || bits%8 != 0 || bits < 8 || bits > 64 {
			return nil, fmt.Errorf("number %q: bad size %q (want 8/16/32/64 bits)", x.Name, x.Size)
		}
		c := &datamodel.Chunk{Name: x.Name, Kind: datamodel.Number, Width: bits / 8}
		if x.Endian == "little" {
			c.Endian = datamodel.Little
		}
		if x.Value != "" {
			v, err := parseUint(x.Value)
			if err != nil {
				return nil, fmt.Errorf("number %q: bad value %q", x.Name, x.Value)
			}
			c.Default = v
		}
		if x.Token == "true" {
			c.Token = true
		}
		if x.Legal != "" {
			for _, part := range strings.Split(x.Legal, ",") {
				v, err := parseUint(strings.TrimSpace(part))
				if err != nil {
					return nil, fmt.Errorf("number %q: bad legal value %q", x.Name, part)
				}
				c.Legal = append(c.Legal, v)
			}
		}
		if err := attachConstraints(c, x); err != nil {
			return nil, err
		}
		return c, nil

	case "String", "Blob":
		kind := datamodel.String
		if x.XMLName.Local == "Blob" {
			kind = datamodel.Blob
		}
		c := &datamodel.Chunk{Name: x.Name, Kind: kind, Size: datamodel.Variable}
		if x.Size != "" {
			n, err := atoiDefault(x.Size, 0)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("%s %q: bad size %q", x.XMLName.Local, x.Name, x.Size)
			}
			c.Size = n
		} else {
			min, err := atoiDefault(x.MinSize, 0)
			if err != nil {
				return nil, fmt.Errorf("%s %q: bad minSize", x.XMLName.Local, x.Name)
			}
			max, err := atoiDefault(x.MaxSize, 0)
			if err != nil {
				return nil, fmt.Errorf("%s %q: bad maxSize", x.XMLName.Local, x.Name)
			}
			c.MinSize, c.MaxSize = min, max
		}
		if x.Value != "" {
			if kind == datamodel.String {
				c.DefaultBytes = []byte(x.Value)
			} else {
				b, err := parseHex(x.Value)
				if err != nil {
					return nil, fmt.Errorf("blob %q: bad hex value %q", x.Name, x.Value)
				}
				c.DefaultBytes = b
			}
		}
		if err := attachConstraints(c, x); err != nil {
			return nil, err
		}
		return c, nil

	case "Block", "Choice":
		kind := datamodel.Block
		if x.XMLName.Local == "Choice" {
			kind = datamodel.Choice
		}
		c := &datamodel.Chunk{Name: x.Name, Kind: kind}
		for i := range x.Children {
			ch, err := convert(&x.Children[i])
			if err != nil {
				return nil, err
			}
			c.Children = append(c.Children, ch)
		}
		return c, nil

	case "Array":
		if len(x.Children) != 1 {
			return nil, fmt.Errorf("array %q: want exactly one element prototype", x.Name)
		}
		el, err := convert(&x.Children[0])
		if err != nil {
			return nil, err
		}
		maxCount, err := atoiDefault(x.MaxCnt, 0)
		if err != nil {
			return nil, fmt.Errorf("array %q: bad maxCount", x.Name)
		}
		return &datamodel.Chunk{Name: x.Name, Kind: datamodel.Array, Children: []*datamodel.Chunk{el}, MaxCount: maxCount}, nil

	case "Relation", "Fixup":
		return nil, fmt.Errorf("%s must be nested inside a field element", x.XMLName.Local)
	default:
		return nil, fmt.Errorf("unknown element <%s>", x.XMLName.Local)
	}
}

// attachConstraints wires Relation/Fixup sub-elements onto a leaf chunk.
func attachConstraints(c *datamodel.Chunk, x *xmlChunk) error {
	if x.Relation != nil {
		var kind datamodel.RelKind
		switch x.Relation.Type {
		case "size":
			kind = datamodel.SizeOf
		case "count":
			kind = datamodel.CountOf
		case "offset":
			kind = datamodel.OffsetOf
		default:
			return fmt.Errorf("field %q: unknown relation type %q", x.Name, x.Relation.Type)
		}
		adj, err := atoiDefault(x.Relation.Adjust, 0)
		if err != nil {
			return fmt.Errorf("field %q: bad relation adjust", x.Name)
		}
		if x.Relation.Of == "" {
			return fmt.Errorf("field %q: relation lacks of=", x.Name)
		}
		c.Rel = &datamodel.Relation{Kind: kind, Of: x.Relation.Of, Adjust: adj}
	}
	if x.Fixup != nil {
		var kind datamodel.FixKind
		switch x.Fixup.Class {
		case "Crc32", "Crc32Fixup":
			kind = datamodel.CRC32IEEE
		case "Crc16Modbus":
			kind = datamodel.CRC16Modbus
		case "Crc16Dnp":
			kind = datamodel.CRC16DNP
		case "Sum8":
			kind = datamodel.Sum8
		case "LRC":
			kind = datamodel.LRC
		default:
			return fmt.Errorf("field %q: unknown fixup class %q", x.Name, x.Fixup.Class)
		}
		var over []string
		for _, part := range strings.Split(x.Fixup.Over, ",") {
			if p := strings.TrimSpace(part); p != "" {
				over = append(over, p)
			}
		}
		if len(over) == 0 {
			return fmt.Errorf("field %q: fixup covers nothing", x.Name)
		}
		c.Fix = &datamodel.Fixup{Kind: kind, Over: over}
	}
	return nil
}

func atoiDefault(s string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	return strconv.Atoi(s)
}

func parseUint(s string) (uint64, error) {
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		return strconv.ParseUint(s[2:], 16, 64)
	}
	return strconv.ParseUint(s, 10, 64)
}

func parseHex(s string) ([]byte, error) {
	s = strings.ReplaceAll(s, " ", "")
	if len(s)%2 != 0 {
		return nil, fmt.Errorf("odd hex length")
	}
	out := make([]byte, len(s)/2)
	for i := 0; i < len(out); i++ {
		v, err := strconv.ParseUint(s[2*i:2*i+2], 16, 8)
		if err != nil {
			return nil, err
		}
		out[i] = byte(v)
	}
	return out, nil
}
