// Package datamodel implements the Peach data-model engine the paper builds
// on (§II, Fig. 1): packet formats are trees whose leaves are typed chunks
// (numbers, strings, blobs) and whose internal nodes are blocks; integrity
// constraints are expressed as Relations (size-of, count-of) and Fixups
// (checksums). The package provides the four operations Peach* needs:
//
//   - Generate: instantiate a model into a default instance tree,
//   - Serialize: render an instance tree to wire bytes,
//   - Crack: parse wire bytes back into an instantiation tree (Alg. 2, PARSE),
//   - ApplyFixups: re-establish integrity constraints after chunk surgery
//     (§IV-D, File Fixup).
package datamodel

import (
	"fmt"
	"sync"
)

// Kind discriminates chunk node types.
type Kind int

// Chunk kinds. Number, String and Blob are leaves; Block, Choice and Array
// are interior nodes.
const (
	// Number is a fixed-width unsigned integer field.
	Number Kind = iota
	// String is a textual field, fixed-size or variable.
	String
	// Blob is an opaque byte field, fixed-size or variable.
	Blob
	// Block is an ordered sequence of child chunks.
	Block
	// Choice selects exactly one of its children; alternatives are tried
	// in order when cracking.
	Choice
	// Array repeats its single child; the repetition count comes from a
	// count-of relation or from greedy consumption of the enclosing
	// region.
	Array
)

// String returns the Pit-style name of the kind.
func (k Kind) String() string {
	switch k {
	case Number:
		return "Number"
	case String:
		return "String"
	case Blob:
		return "Blob"
	case Block:
		return "Block"
	case Choice:
		return "Choice"
	case Array:
		return "Array"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Endian selects byte order for Number chunks.
type Endian int

// Byte orders. ICS protocols are predominantly big-endian on the wire
// (Modbus, IEC104, MMS); DNP3 is little-endian.
const (
	Big Endian = iota
	Little
)

// RelKind discriminates relation types (Peach's Relation element).
type RelKind int

// Relation kinds.
const (
	// SizeOf: this number carries the serialized byte length of the
	// referenced chunk.
	SizeOf RelKind = iota
	// CountOf: this number carries the element count of the referenced
	// Array chunk.
	CountOf
	// OffsetOf: this number carries the byte offset of the referenced
	// chunk from the start of the packet.
	OffsetOf
)

// String returns the Pit-style name of the relation kind.
func (k RelKind) String() string {
	switch k {
	case SizeOf:
		return "size-of"
	case CountOf:
		return "count-of"
	case OffsetOf:
		return "offset-of"
	default:
		return fmt.Sprintf("RelKind(%d)", int(k))
	}
}

// Relation declares that a Number chunk's value is derived from another
// chunk, as in Fig. 1's sizeof relation. Adjust is added to the measured
// quantity before storing (e.g. IEC104's APCI length excludes the first two
// header bytes: Adjust = -2 on a size-of spanning them would not apply, but
// a +N adjustment covers "length includes the length field itself" cases).
//
// Of binds by name, per instance, to the first chunk in document order that
// carries it — Node.Find's rule. Every element of an Array therefore measures
// the first element's field, and a name that only an untaken Choice
// alternative carries binds to nothing, which leaves the relation field as
// it is.
type Relation struct {
	Kind   RelKind
	Of     string // name of the measured chunk
	Adjust int
}

// FixKind discriminates checksum algorithms available to Fixups.
type FixKind int

// Checksum algorithms used by the ICS protocols in this repository.
const (
	// CRC32IEEE is Peach's Crc32Fixup (Fig. 1).
	CRC32IEEE FixKind = iota
	// CRC16Modbus is the reflected 0xA001 CRC used by Modbus RTU.
	CRC16Modbus
	// CRC16DNP is DNP3's data-link CRC (poly 0x3D65, reflected,
	// complemented).
	CRC16DNP
	// Sum8 is a one-byte modular sum.
	Sum8
	// LRC is the longitudinal redundancy check used by Modbus ASCII and
	// several serial ICS links: two's complement of the byte sum.
	LRC
)

// String returns the Pit-style name of the fixup kind.
func (k FixKind) String() string {
	switch k {
	case CRC32IEEE:
		return "Crc32Fixup"
	case CRC16Modbus:
		return "Crc16ModbusFixup"
	case CRC16DNP:
		return "Crc16DnpFixup"
	case Sum8:
		return "Sum8Fixup"
	case LRC:
		return "LRCFixup"
	default:
		return fmt.Sprintf("FixKind(%d)", int(k))
	}
}

// Fixup declares that a chunk's bytes are a checksum computed over the
// serialized bytes of the Over chunks, in declaration order (Fig. 1's
// Crc32Fixup). Each Over name binds as Relation.Of does: to its first
// occurrence in the instance, and to nothing — covering no bytes — when the
// instance has none. A Number carries the sum's low Width bytes in its byte
// order; a Blob carries it big-endian in its last 8 bytes, zeros before.
type Fixup struct {
	Kind FixKind
	Over []string
}

// Variable marks a String/Blob whose size is not fixed but resolved through
// a size-of relation or by consuming the remainder of the enclosing region.
const Variable = -1

// Chunk is one node of a data model: a construction rule in the paper's
// terminology. The set of meaningful fields depends on Kind; Validate
// enforces the constraints.
type Chunk struct {
	Name string
	Kind Kind

	// Number fields.
	Width   int    // byte width, 1..8
	Endian  Endian // byte order
	Default uint64 // default/seed value
	Legal   []uint64
	// Token marks a field that identifies the packet type (the paper's
	// "function code"/"opcode" field, §III). A token must equal Default
	// for a crack to succeed, which is what lets one payload model reject
	// another opcode's bytes.
	Token bool

	// String/Blob fields. Size == Variable means size is resolved by
	// relation or region remainder; MinSize/MaxSize bound generated and
	// cracked sizes when variable.
	Size         int
	MinSize      int
	MaxSize      int
	DefaultBytes []byte

	// Rel derives this Number's value from another chunk.
	Rel *Relation
	// Fix derives this chunk's bytes from a checksum over other chunks.
	Fix *Fixup

	// Children of Block/Choice; the single element prototype of Array.
	Children []*Chunk

	// MaxCount bounds Array length during generation and cracking
	// (0 = default bound).
	MaxCount int

	// sig caches RuleSignature, precomputed by Model.Validate (which every
	// engine runs before its workers start, so the writes happen-before any
	// concurrent read). Empty until then; RuleSignature recomputes on the
	// fly for chunks used outside a validated model.
	sig string

	// The chunk's part of its model's fixup plan (Model.compilePlan): slots
	// into an instance's first-occurrence table (shape.spans), 0 = none.
	// slot is the chunk's own, set when a relation or fixup names it;
	// relSlot is Rel.Of's; fixSlots are Fix.Over's, in order.
	slot, relSlot int32
	fixSlots      []int32
}

// Model is a named data model: the root is implicitly a Block over Fields.
// One format specification (Pit) usually carries several models, one per
// packet type (§III: M_1 … M_n, typically one per opcode value).
//
// Models are used via pointer and must not be copied by value (the cached
// root, plan and default instance each hold a sync.Once), nor have Fields
// mutated after first use.
// A chunk belongs to one model: the model's fixup plan is stored on it.
type Model struct {
	Name   string
	Fields []*Chunk

	rootOnce  sync.Once
	rootChunk *Chunk

	// planOnce guards compilePlan; slots is the plan's slot count.
	planOnce sync.Once
	slots    int

	// defaultOnce guards buildDefault; defaultInst is the shared, read-only
	// default instance GenerateInto clones, defaultFlat its flat form.
	defaultOnce sync.Once
	defaultInst *Node
	defaultFlat Flat
}

// root wraps the model's fields as a synthetic Block so tree algorithms can
// treat the model uniformly. The wrapper is built once — root sits on the
// per-execution generate and crack paths.
func (m *Model) root() *Chunk {
	m.rootOnce.Do(func() {
		m.rootChunk = &Chunk{Name: m.Name, Kind: Block, Children: m.Fields}
	})
	return m.rootChunk
}

// Validate checks structural well-formedness: widths in range, children
// present where required, every relation/fixup reference carried by some
// chunk of the model. Names need not be unique: a reference binds, per
// instance, to the first chunk in document order that carries the name (see
// Relation). It also precomputes every chunk's donor-rule signature, making
// RuleSignature allocation-free afterwards, and compiles the fixup plan
// (once: validating a model again only re-checks it).
func (m *Model) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("datamodel: model has no name")
	}
	names := map[string]bool{}
	for _, f := range m.Fields {
		f.each(func(c *Chunk) {
			if c.Name != "" {
				names[c.Name] = true
			}
		})
	}
	var walk func(c *Chunk) error
	walk = func(c *Chunk) error {
		switch c.Kind {
		case Number:
			if c.Width < 1 || c.Width > 8 {
				return fmt.Errorf("datamodel: number %q width %d out of range", c.Name, c.Width)
			}
			if len(c.Children) != 0 {
				return fmt.Errorf("datamodel: number %q has children", c.Name)
			}
		case String, Blob:
			if c.Size < Variable {
				return fmt.Errorf("datamodel: %s %q has invalid size %d", c.Kind, c.Name, c.Size)
			}
			if c.Size == Variable && c.MaxSize != 0 && c.MaxSize < c.MinSize {
				return fmt.Errorf("datamodel: %s %q max size < min size", c.Kind, c.Name)
			}
			if len(c.Children) != 0 {
				return fmt.Errorf("datamodel: %s %q has children", c.Kind, c.Name)
			}
		case Block, Choice:
			if len(c.Children) == 0 {
				return fmt.Errorf("datamodel: %s %q has no children", c.Kind, c.Name)
			}
		case Array:
			if len(c.Children) != 1 {
				return fmt.Errorf("datamodel: array %q must have exactly one element prototype", c.Name)
			}
		default:
			return fmt.Errorf("datamodel: %q has unknown kind %d", c.Name, int(c.Kind))
		}
		if c.Rel != nil {
			if c.Kind != Number {
				return fmt.Errorf("datamodel: relation on non-number %q", c.Name)
			}
			if !names[c.Rel.Of] {
				return fmt.Errorf("datamodel: relation on %q references unknown chunk %q", c.Name, c.Rel.Of)
			}
		}
		if c.Fix != nil {
			if c.Kind != Number && c.Kind != Blob {
				return fmt.Errorf("datamodel: fixup on %s %q (want Number or Blob)", c.Kind, c.Name)
			}
			if len(c.Fix.Over) == 0 {
				return fmt.Errorf("datamodel: fixup on %q covers nothing", c.Name)
			}
			for _, o := range c.Fix.Over {
				if !names[o] {
					return fmt.Errorf("datamodel: fixup on %q references unknown chunk %q", c.Name, o)
				}
			}
		}
		c.sig = computeRuleSignature(c)
		for _, ch := range c.Children {
			if err := walk(ch); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(m.root()); err != nil {
		return err
	}
	m.planOnce.Do(m.compilePlan)
	return nil
}

// each calls f on c and every chunk below it, in document order.
func (c *Chunk) each(f func(*Chunk)) {
	f(c)
	for _, ch := range c.Children {
		ch.each(f)
	}
}

// Opcode returns the value of the first token Number in the model, which by
// the convention of §III identifies the packet type. ok is false when the
// model has no token.
func (m *Model) Opcode() (val uint64, ok bool) {
	var rec func(c *Chunk) (uint64, bool)
	rec = func(c *Chunk) (uint64, bool) {
		if c.Kind == Number && c.Token {
			return c.Default, true
		}
		for _, ch := range c.Children {
			if v, ok := rec(ch); ok {
				return v, true
			}
		}
		return 0, false
	}
	return rec(m.root())
}
