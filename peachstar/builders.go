package peachstar

import "repro/internal/datamodel"

// Re-exported model builders, so user protocols can be described without
// importing internal packages. They mirror the Pit elements (cf. paper
// Fig. 1): typed leaves, blocks, choices, arrays, relations and fixups.

// Endianness of Number chunks.
const (
	Big    = datamodel.Big
	Little = datamodel.Little
)

// Relation kinds.
const (
	SizeOf   = datamodel.SizeOf
	CountOf  = datamodel.CountOf
	OffsetOf = datamodel.OffsetOf
)

// Fixup (checksum) kinds.
const (
	CRC32IEEE   = datamodel.CRC32IEEE
	CRC16Modbus = datamodel.CRC16Modbus
	CRC16DNP    = datamodel.CRC16DNP
	Sum8        = datamodel.Sum8
	LRC         = datamodel.LRC
)

// Variable marks a String/Blob whose size is resolved by relation or
// region remainder.
const Variable = datamodel.Variable

// Num returns a big-endian Number chunk of the given byte width.
func Num(name string, width int, def uint64) *Chunk { return datamodel.Num(name, width, def) }

// NumLE returns a little-endian Number chunk.
func NumLE(name string, width int, def uint64) *Chunk { return datamodel.NumLE(name, width, def) }

// Str returns a fixed-size String chunk.
func Str(name string, size int, def string) *Chunk { return datamodel.Str(name, size, def) }

// StrVar returns a variable-size String chunk bounded by [min, max].
func StrVar(name string, min, max int, def string) *Chunk {
	return datamodel.StrVar(name, min, max, def)
}

// Bytes returns a fixed-size Blob chunk.
func Bytes(name string, size int, def []byte) *Chunk { return datamodel.Bytes(name, size, def) }

// BytesVar returns a variable-size Blob chunk bounded by [min, max].
func BytesVar(name string, min, max int, def []byte) *Chunk {
	return datamodel.BytesVar(name, min, max, def)
}

// Blk returns a Block over the given children.
func Blk(name string, children ...*Chunk) *Chunk { return datamodel.Blk(name, children...) }

// Alt returns a Choice over the given alternatives.
func Alt(name string, alternatives ...*Chunk) *Chunk { return datamodel.Alt(name, alternatives...) }

// Rep returns an Array repeating the element prototype.
func Rep(name string, element *Chunk, maxCount int) *Chunk {
	return datamodel.Rep(name, element, maxCount)
}

// NewModel assembles and validates a model. A malformed definition — a
// relation or fixup naming a chunk the model does not have, say — is an
// error, not a panic: user models are input.
func NewModel(name string, fields ...*Chunk) (*Model, error) {
	m := &Model{Name: name, Fields: fields}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// RuleSignature computes a chunk's construction-rule identity — the donor
// compatibility key of the puzzle corpus (§III's chunk similarity).
func RuleSignature(c *Chunk) string { return datamodel.RuleSignature(c) }
