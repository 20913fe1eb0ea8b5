package datamodel

import "sync"

// Flat is the flat form of an instance: its leaves in document order plus
// the shape the model's fixup plan reads from it. Everything the engine does
// to an instance between picking a skeleton and sending the packet — mutate
// leaves, alias donor bytes into them, File Fixup, JOINT — touches leaf
// content only, so it runs as flat loops and never walks a tree.
//
// A Flat is used through a pointer. One that is final (a model's default
// instance, a retained valuable instance, the engine's randomized skeleton,
// a Cracker's accepted instance) is sealed: its wire bytes and leaf offsets
// are cached (by Seal, or by the Cracker as it accepts), nothing writes it
// afterwards, and it may be shared read-only across workers. A Draft edits
// it without copying it.
type Flat struct {
	// Leaves are the instance's leaf nodes in document order. Callers may
	// repoint a leaf's Data until the Flat is sealed; the slice itself
	// belongs to the Flat.
	Leaves []*Node
	shape  shape
	buf    []byte // serialization of the chunks one checksum covers
	// wire and offs are the seal: the instance's wire bytes and each
	// leaf's offset in them, offs[len(Leaves)] being their length.
	wire []byte
	offs []int32
}

// shape is what the fixup plan needs to know about an instance's structure.
// Content edits cannot change it: which leaves exist and in what order is
// fixed once the tree is built.
type shape struct {
	// spans[slot] locates the first node in document order whose chunk owns
	// the slot — Node.Find's answer for the slot's name. spans[0] is the
	// "no slot" entry and stays unbound.
	spans []span
	rels  []int32 // leaf indices of the relation-bearing Numbers
	fixes []int32 // leaf indices of the fixup-bearing leaves
}

// span is one slot's binding: the node's leaves are Leaves[lo:hi] and kids
// is its child count. bound is false when the instance has no such node (an
// untaken Choice alternative, an empty Array's element).
type span struct {
	lo, hi, kids int32
	bound        bool
}

// Flatten walks the instance once, makes f its flat form and returns f.
// f.Leaves point into the tree: writing through them (ApplyFixups) writes
// the tree.
func (m *Model) Flatten(f *Flat, root *Node) *Flat {
	m.planOnce.Do(m.compilePlan)
	s := &f.shape
	if cap(s.spans) <= m.slots {
		// First flatten of a model with more slots than any before it; the grown table is reused.
		s.spans = make([]span, m.slots+1)
	}
	s.spans = s.spans[:m.slots+1]
	clear(s.spans)
	s.rels, s.fixes = s.rels[:0], s.fixes[:0]
	f.Leaves, f.offs = f.Leaves[:0], f.offs[:0]
	f.flatten(root)
	return f
}

// flatten is Flatten's recursive walk.
func (f *Flat) flatten(n *Node) {
	c := n.Chunk
	var sp *span
	if c.slot != 0 && !f.shape.spans[c.slot].bound {
		sp = &f.shape.spans[c.slot]
		*sp = span{lo: int32(len(f.Leaves)), kids: int32(len(n.Children)), bound: true}
	}
	if n.IsLeaf() {
		if c.Rel != nil && c.Kind == Number {
			f.shape.rels = append(f.shape.rels, int32(len(f.Leaves)))
		}
		if c.Fix != nil {
			f.shape.fixes = append(f.shape.fixes, int32(len(f.Leaves)))
		}
		f.Leaves = append(f.Leaves, n)
	} else {
		for _, ch := range n.Children {
			f.flatten(ch)
		}
	}
	if sp != nil {
		sp.hi = int32(len(f.Leaves))
	}
}

// Seal caches f's wire bytes and leaf offsets and returns f: a base for
// Drafts. f must be final and a fixed point of ApplyFixups — relations hold,
// checksums match, relation fields are Width bytes long.
func (f *Flat) Seal() *Flat {
	f.wire, f.offs = f.wire[:0], append(f.offs[:0], 0)
	for _, n := range f.Leaves {
		f.wire = append(f.wire, n.Data...)
		f.offs = append(f.offs, int32(len(f.wire)))
	}
	return f
}

// Wire returns a sealed Flat's wire bytes — the instance, rendered. They
// belong to f and are read-only.
func (f *Flat) Wire() []byte { return f.wire }

// size is the serialized length of Leaves[lo:hi].
func (f *Flat) size(lo, hi int32) (total int) {
	for _, n := range f.Leaves[lo:hi] {
		total += len(n.Data)
	}
	return total
}

// ApplyFixups re-establishes the model's integrity constraints on the
// instance, in place. This is the File Fixup module of §IV-D; the paper
// notes it reuses Peach's Fixup and Relation machinery directly, which is
// what this method is.
//
// The model's plan (compilePlan, built once) names every referenced chunk by
// slot and the shape binds each slot to its first occurrence, so nothing is
// looked up by name or walked per call: size-of is a sum over a leaf span,
// offset-of a sum over the leaves before it, count-of the recorded child
// count. Relations go first, in document order: writing one changes a length
// only when the field had been resized away from its Width (SetUint snaps it
// back). One pass is therefore final unless it resized a field, in which
// case a second pass re-measures everything against the settled lengths.
// Checksums go last, in document order, because they cover final bytes —
// including the relation fields and any earlier checksum.
func (f *Flat) ApplyFixups() {
	if f.setRelations() {
		f.setRelations()
	}
	for _, i := range f.shape.fixes {
		n := f.Leaves[i]
		sum := f.shape.checksum(n.Chunk, &f.buf, f.appendLeaves)
		switch n.Chunk.Kind {
		case Number:
			n.SetUint(sum & widthMask(n.Chunk.Width))
		case Blob:
			putSum(n.Data, sum)
		}
	}
}

// setRelations stores every bound relation's value in its field and reports
// whether doing so changed any field's length.
func (f *Flat) setRelations() (resized bool) {
	for _, i := range f.shape.rels {
		n := f.Leaves[i]
		if v, ok := f.shape.relationValue(n.Chunk, f.size); ok {
			resized = resized || len(n.Data) != n.Chunk.Width
			n.SetUint(v)
		}
	}
	return resized
}

// relationValue measures what relation field c should hold, given the byte
// size of a leaf range. ok is false when the measured chunk is absent from
// the instance, which leaves the field alone.
func (s *shape) relationValue(c *Chunk, size func(lo, hi int32) int) (v uint64, ok bool) {
	sp := s.spans[c.relSlot]
	if !sp.bound {
		return 0, false
	}
	var q int
	switch c.Rel.Kind {
	case SizeOf:
		q = size(sp.lo, sp.hi)
	case CountOf:
		q = int(sp.kids)
	case OffsetOf:
		q = size(0, sp.lo)
	}
	q += c.Rel.Adjust
	if q < 0 {
		q = 0
	}
	return uint64(q) & widthMask(c.Width), true
}

// appendLeaves appends the bytes of Leaves[lo:hi].
func (f *Flat) appendLeaves(dst []byte, lo, hi int32) []byte {
	for _, n := range f.Leaves[lo:hi] {
		dst = append(dst, n.Data...)
	}
	return dst
}

// checksum computes fixup field c's checksum over the serialized bytes of
// the chunks it covers, in declaration order (absent chunks cover nothing),
// gathered into *buf by a serializer of leaf ranges.
func (s *shape) checksum(c *Chunk, buf *[]byte, appendLeaves func(dst []byte, lo, hi int32) []byte) uint64 {
	b := (*buf)[:0]
	for _, slot := range c.fixSlots {
		if sp := s.spans[slot]; sp.bound {
			b = appendLeaves(b, sp.lo, sp.hi)
		}
	}
	*buf = b
	return Checksum(c.Fix.Kind, b)
}

// violation returns the index of the first leaf Model.VerifyFixups rejects —
// relations first, then checksums, each in document order — or -1.
func (f *Flat) violation() int {
	for _, i := range f.shape.rels {
		n := f.Leaves[i]
		if v, ok := f.shape.relationValue(n.Chunk, f.size); ok && n.Uint() != v {
			return int(i)
		}
	}
	for _, i := range f.shape.fixes {
		n := f.Leaves[i]
		sum := f.shape.checksum(n.Chunk, &f.buf, f.appendLeaves)
		if n.Chunk.Kind == Number {
			if n.Uint() != sum&widthMask(len(n.Data)) {
				return int(i)
			}
		} else if !sumMatches(n.Data, sum) {
			return int(i)
		}
	}
	return -1
}

// Clone returns a sealed copy of sealed f that shares nothing with it —
// leaf nodes, bytes and shape are its own — for retaining an instance whose
// source is scratch (a Cracker's). Every leaf aliases the copy's wire bytes,
// capped at its own length.
func (f *Flat) Clone() *Flat {
	g := &Flat{
		Leaves: make([]*Node, len(f.Leaves)),
		shape: shape{
			spans: append([]span(nil), f.shape.spans...),
			rels:  append([]int32(nil), f.shape.rels...),
			fixes: append([]int32(nil), f.shape.fixes...),
		},
		wire: append([]byte(nil), f.wire...),
		offs: append([]int32(nil), f.offs...),
	}
	nodes := make([]Node, len(f.Leaves))
	for i, s := range f.Leaves {
		n := &nodes[i]
		n.Chunk = s.Chunk
		if lo, hi := g.offs[i], g.offs[i+1]; hi > lo {
			n.Data = g.wire[lo:hi:hi]
		}
		g.Leaves[i] = n
	}
	return g
}

// flatPool holds the scratch Flats of the tree entry points. One cannot live
// on the stack (Flatten threads it through a recursive walk) nor on the
// Model (models are shared read-only across parallel workers); a pool gives
// every concurrent caller an amortized-free one.
var flatPool = sync.Pool{New: func() any { return new(Flat) }}

// release returns the scratch to the pool with every node pointer cleared:
// instance trees are arena-backed and die at the next Arena.Reset, and a
// pooled pointer would keep the previous slab reachable.
func (f *Flat) release() {
	clear(f.Leaves)
	flatPool.Put(f)
}

// ApplyFixups is Flat.ApplyFixups on an instance tree: flatten into pooled
// scratch, run the same loops.
func (m *Model) ApplyFixups(root *Node) {
	f := m.Flatten(flatPool.Get().(*Flat), root)
	f.ApplyFixups()
	f.release()
}

// VerifyFixups reports whether every relation and checksum of an instance
// tree holds, through ApplyFixups's plan — the fixup invariant.
func (m *Model) VerifyFixups(root *Node) bool {
	f := m.Flatten(flatPool.Get().(*Flat), root)
	defer f.release()
	return f.violation() < 0
}
