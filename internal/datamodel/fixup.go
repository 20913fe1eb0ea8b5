package datamodel

import "hash/crc32"

// compilePlan numbers every chunk name that a relation or fixup of the model
// refers to — a slot, 1-based so the zero value means "none" — and stores on
// each chunk its own slot (when its name is referred to), its relation
// target's and its checksum cover's. Slots are handed out in document order
// of the references; chunks that share a name share a slot, and per instance
// the slot binds to the first of them present (see shape.spans). It
// runs once per model, from Validate or from the first fixup call on a model
// that was never validated.
func (m *Model) compilePlan() {
	slots := map[string]int32{}
	slotOf := func(name string) int32 {
		s, ok := slots[name]
		if !ok {
			s = int32(len(slots) + 1)
			slots[name] = s
		}
		return s
	}
	m.root().each(func(c *Chunk) {
		if c.Rel != nil {
			c.relSlot = slotOf(c.Rel.Of)
		}
		if c.Fix != nil {
			c.fixSlots = make([]int32, len(c.Fix.Over))
			for i, name := range c.Fix.Over {
				c.fixSlots[i] = slotOf(name)
			}
		}
	})
	m.root().each(func(c *Chunk) { c.slot = slots[c.Name] })
	m.slots = len(slots)
}

// putSum writes sum into a Blob fixup field of any size, in place:
// big-endian into the last 8 bytes (the low-order bytes of sum when the
// field is narrower), zeros before them.
func putSum(dst []byte, sum uint64) {
	if wide := len(dst) - 8; wide > 0 {
		clear(dst[:wide])
		dst = dst[wide:]
	}
	putUint(dst, sum, Big)
}

// sumMatches reports whether a Blob fixup field holds exactly what putSum
// would write.
func sumMatches(data []byte, sum uint64) bool {
	if wide := len(data) - 8; wide > 0 {
		for _, b := range data[:wide] {
			if b != 0 {
				return false
			}
		}
		data = data[wide:]
	}
	return decodeUint(data, Big) == sum&widthMask(len(data))
}

// Checksum computes the named checksum over data, returning it as an
// integer in the low-order bits.
func Checksum(kind FixKind, data []byte) uint64 {
	switch kind {
	case CRC32IEEE:
		return uint64(crc32.ChecksumIEEE(data))
	case CRC16Modbus:
		return uint64(CRC16ModbusSum(data))
	case CRC16DNP:
		return uint64(CRC16DNPSum(data))
	case Sum8:
		var s byte
		for _, b := range data {
			s += b
		}
		return uint64(s)
	case LRC:
		var s byte
		for _, b := range data {
			s += b
		}
		return uint64(byte(-int8(s)))
	default:
		return 0
	}
}

// crc16ModbusTab and crc16DNPTab are the byte-at-a-time tables of the two
// reflected CRC16 polynomials.
var crc16ModbusTab, crc16DNPTab = crc16Table(0xA001), crc16Table(0xA6BC)

// crc16Table runs the bitwise reflected-CRC step over every byte value.
func crc16Table(poly uint16) (tab [256]uint16) {
	for i := range tab {
		crc := uint16(i)
		for bit := 0; bit < 8; bit++ {
			if crc&1 != 0 {
				crc = crc>>1 ^ poly
			} else {
				crc >>= 1
			}
		}
		tab[i] = crc
	}
	return tab
}

// crc16 folds data into crc one table lookup per byte.
func crc16(tab *[256]uint16, crc uint16, data []byte) uint16 {
	for _, b := range data {
		crc = crc>>8 ^ tab[byte(crc)^b]
	}
	return crc
}

// CRC16ModbusSum computes the Modbus RTU CRC: polynomial 0x8005 reflected
// (0xA001), initial value 0xFFFF, no final XOR. The Modbus spec transmits
// it little-endian.
func CRC16ModbusSum(data []byte) uint16 {
	return crc16(&crc16ModbusTab, 0xFFFF, data)
}

// CRC16DNPSum computes the DNP3 data-link CRC: polynomial 0x3D65 reflected
// (0xA6BC), initial value 0, complemented output. DNP3 transmits it
// little-endian after each data block.
func CRC16DNPSum(data []byte) uint16 {
	return ^crc16(&crc16DNPTab, 0, data)
}
