package datamodel

import (
	"hash/crc32"
	"sync"
)

// compilePlan numbers every chunk name that a relation or fixup of the model
// refers to — a slot, 1-based so the zero value means "none" — and stores on
// each chunk its own slot (when its name is referred to), its relation
// target's and its checksum cover's. Slots are handed out in document order
// of the references; chunks that share a name share a slot, and per instance
// the slot binds to the first of them present (see fixupScratch.first). It
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

// fixupScratch is the per-call working set of ApplyFixups and VerifyFixups.
// It cannot live on the stack (it threads through a recursive walk) and
// cannot live on the Model (models are shared read-only across parallel
// workers); a pool gives every concurrent caller an amortized-free one.
type fixupScratch struct {
	// first[slot] is the first node in document order whose chunk owns the
	// slot — Node.Find's answer for the slot's name; nil when the instance
	// has no such node (an untaken Choice alternative, an empty Array).
	// first[0] is the "no slot" entry and stays nil.
	first []*Node
	rels  []*Node // relation-bearing Numbers, document order
	fixes []*Node // fixup-bearing nodes, document order
	buf   []byte  // serialization of the chunks one checksum covers
}

var fixupPool = sync.Pool{
	New: func() any { return &fixupScratch{buf: make([]byte, 0, 512)} },
}

// bind walks the instance once and returns a scratch holding everything the
// model's plan needs from it. The caller must release it.
//
//peachstar:hotpath
func (m *Model) bind(root *Node) *fixupScratch {
	m.planOnce.Do(m.compilePlan)
	s := fixupPool.Get().(*fixupScratch)
	if cap(s.first) <= m.slots {
		//peachstar:allocok first call on a model with more slots than any before it; the grown table is pooled
		s.first = make([]*Node, m.slots+1)
	}
	s.first = s.first[:m.slots+1]
	s.collect(root)
	return s
}

// collect is bind's recursive walk.
//
//peachstar:hotpath
func (s *fixupScratch) collect(n *Node) {
	c := n.Chunk
	if c.slot != 0 && s.first[c.slot] == nil {
		s.first[c.slot] = n
	}
	if c.Rel != nil && c.Kind == Number {
		s.rels = append(s.rels, n)
	}
	if c.Fix != nil {
		s.fixes = append(s.fixes, n)
	}
	for _, ch := range n.Children {
		s.collect(ch)
	}
}

// release returns the scratch to the pool with every node pointer cleared:
// instance trees are arena-backed and die at the next Arena.Reset, and a
// pooled pointer would keep the previous slab reachable.
func (s *fixupScratch) release() {
	clear(s.first)
	clear(s.rels)
	clear(s.fixes)
	s.rels, s.fixes = s.rels[:0], s.fixes[:0]
	fixupPool.Put(s)
}

// ApplyFixups re-establishes the model's integrity constraints on an
// instance tree, in place. This is the File Fixup module of §IV-D; the paper
// notes it reuses Peach's Fixup and Relation machinery directly, which is
// what this method is.
//
// The model's plan (compilePlan, built once) names every referenced chunk by
// slot, so one document-order walk binds each slot to its first occurrence
// and lists the relation and fixup fields; nothing is looked up by name per
// call. Relations go first, in document order: a relation reads only subtree
// lengths, child counts and offsets, and writing one changes a length only
// when the field had been resized away from its Width (SetUint snaps it
// back). One pass is therefore final unless it resized a field, in which
// case a second pass re-measures everything against the settled lengths.
// Checksums go last, in document order, because they cover final bytes —
// including the relation fields and any earlier checksum.
//
//peachstar:hotpath
func (m *Model) ApplyFixups(root *Node) {
	s := m.bind(root)
	if s.setRelations(root) {
		s.setRelations(root)
	}
	for _, n := range s.fixes {
		sum := s.checksum(n)
		switch n.Chunk.Kind {
		case Number:
			n.SetUint(sum & widthMask(n.Chunk.Width))
		case Blob:
			putSum(n.Data, sum)
		}
	}
	s.release()
}

// setRelations stores every bound relation's value in its field and reports
// whether doing so changed any field's length.
func (s *fixupScratch) setRelations(root *Node) (resized bool) {
	for _, n := range s.rels {
		if v, ok := s.relationValue(root, n); ok {
			resized = resized || len(n.Data) != n.Chunk.Width
			n.SetUint(v)
		}
	}
	return resized
}

// relationValue measures what the relation field n should hold. ok is false
// when the measured chunk is absent from the instance, which leaves the
// field alone.
func (s *fixupScratch) relationValue(root, n *Node) (v uint64, ok bool) {
	target := s.first[n.Chunk.relSlot]
	if target == nil {
		return 0, false
	}
	var q int
	switch n.Chunk.Rel.Kind {
	case SizeOf:
		q = target.Len()
	case CountOf:
		q = len(target.Children)
	case OffsetOf:
		q, _ = bytesBefore(root, target)
	}
	q += n.Chunk.Rel.Adjust
	if q < 0 {
		q = 0
	}
	return uint64(q) & widthMask(n.Chunk.Width), true
}

// bytesBefore returns the number of serialized bytes of n's subtree that
// precede target, and whether target is in the subtree.
func bytesBefore(n, target *Node) (off int, found bool) {
	if n == target {
		return 0, true
	}
	if n.IsLeaf() {
		return len(n.Data), false
	}
	for _, c := range n.Children {
		k, found := bytesBefore(c, target)
		off += k
		if found {
			return off, true
		}
	}
	return off, false
}

// checksum computes fixup field n's checksum over the serialized bytes of
// the chunks it covers, in declaration order; absent chunks cover nothing.
func (s *fixupScratch) checksum(n *Node) uint64 {
	buf := s.buf[:0]
	for _, slot := range n.Chunk.fixSlots {
		if t := s.first[slot]; t != nil {
			buf = t.AppendTo(buf)
		}
	}
	s.buf = buf
	return Checksum(n.Chunk.Fix.Kind, buf)
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
//
//peachstar:hotpath
func CRC16ModbusSum(data []byte) uint16 {
	return crc16(&crc16ModbusTab, 0xFFFF, data)
}

// CRC16DNPSum computes the DNP3 data-link CRC: polynomial 0x3D65 reflected
// (0xA6BC), initial value 0, complemented output. DNP3 transmits it
// little-endian after each data block.
//
//peachstar:hotpath
func CRC16DNPSum(data []byte) uint16 {
	return ^crc16(&crc16DNPTab, 0, data)
}

// VerifyFixups reports whether every fixup field in the instance currently
// matches the checksum of the bytes it covers, and whether every size/count/
// offset relation holds — the conditions ApplyFixups establishes, checked
// through the same plan and bindings. Crackers use it to reject corrupt
// packets; tests use it to state the fixup invariant.
func (m *Model) VerifyFixups(root *Node) bool {
	s := m.bind(root)
	defer s.release()
	for _, n := range s.rels {
		if v, ok := s.relationValue(root, n); ok && n.Uint() != v {
			return false
		}
	}
	for _, n := range s.fixes {
		sum := s.checksum(n)
		if n.Chunk.Kind == Number {
			if n.Uint() != sum&widthMask(len(n.Data)) {
				return false
			}
		} else if !sumMatches(n.Data, sum) {
			return false
		}
	}
	return true
}
