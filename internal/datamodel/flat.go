package datamodel

import "sync"

// Flat is the flat form of an instance: its leaves in document order plus
// the shape the model's fixup plan reads from it. Everything the engine does
// to an instance between picking a skeleton and sending the packet — mutate
// leaves, alias donor bytes into them, File Fixup, JOINT — touches leaf
// content only, so it runs as flat loops over Leaves and never walks a tree.
//
// A Flat is used through a pointer. One built by Flatten or Clone that
// nothing writes to afterwards (a model's default instance, a retained
// valuable instance) may be shared read-only across workers; CopyFrom gives
// a worker its own writable copy per execution.
type Flat struct {
	// Leaves are the instance's leaf nodes in document order. Callers may
	// repoint a leaf's Data; the slice itself belongs to the Flat.
	Leaves []*Node
	// shape is the one in force: &own after Flatten or Clone, the
	// source's — shared, never written — after CopyFrom.
	shape *shape
	own   shape
	buf   []byte // serialization of the chunks one checksum covers
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
	s := &f.own
	if cap(s.spans) <= m.slots {
		// First flatten of a model with more slots than any before it; the grown table is reused.
		s.spans = make([]span, m.slots+1)
	}
	s.spans = s.spans[:m.slots+1]
	clear(s.spans)
	s.rels, s.fixes = s.rels[:0], s.fixes[:0]
	f.shape, f.Leaves = s, f.Leaves[:0]
	f.flatten(root)
	return f
}

// flatten is Flatten's recursive walk.
func (f *Flat) flatten(n *Node) {
	c := n.Chunk
	var sp *span
	if c.slot != 0 && !f.own.spans[c.slot].bound {
		sp = &f.own.spans[c.slot]
		*sp = span{lo: int32(len(f.Leaves)), kids: int32(len(n.Children)), bound: true}
	}
	if n.IsLeaf() {
		if c.Rel != nil && c.Kind == Number {
			f.own.rels = append(f.own.rels, int32(len(f.Leaves)))
		}
		if c.Fix != nil {
			f.own.fixes = append(f.own.fixes, int32(len(f.Leaves)))
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

// CopyFrom makes f a writable copy of src: one contiguous block of leaf
// nodes drawn from the arena (nil means the heap), sharing src's shape and
// aliasing src's leaf bytes. Nothing done to the copy writes through to src:
// mutators and donors repoint Data, SetUint writes the copy's inline store,
// and the one in-place write File Fixup makes — a Blob checksum field — gets
// its own bytes here.
func (f *Flat) CopyFrom(src *Flat, a *Arena) {
	block := a.Nodes(len(src.Leaves))
	f.Leaves = f.Leaves[:0]
	for i, s := range src.Leaves {
		n := &block[i]
		n.Chunk, n.Data = s.Chunk, s.Data
		f.Leaves = append(f.Leaves, n)
	}
	f.shape = src.shape
	for _, i := range f.shape.fixes {
		if n := f.Leaves[i]; n.Chunk.Kind == Blob {
			n.Data = append(a.Buffer(len(n.Data)), n.Data...)
		}
	}
}

// size is the serialized length of Leaves[lo:hi].
func (f *Flat) size(lo, hi int32) (total int) {
	for _, n := range f.Leaves[lo:hi] {
		total += len(n.Data)
	}
	return total
}

// Render returns the instance's wire bytes — JOINT as one loop over the
// leaves — in a buffer drawn from the arena (nil means the heap) and sized
// beforehand, so it lives until the next Arena.Reset.
func (f *Flat) Render(a *Arena) []byte {
	dst := a.Buffer(f.size(0, int32(len(f.Leaves))))
	for _, n := range f.Leaves {
		dst = append(dst, n.Data...)
	}
	return dst
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
		sum := f.checksum(n.Chunk)
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
		if v, ok := f.relationValue(n.Chunk); ok {
			resized = resized || len(n.Data) != n.Chunk.Width
			n.SetUint(v)
		}
	}
	return resized
}

// relationValue measures what relation field c should hold. ok is false when
// the measured chunk is absent from the instance, which leaves the field
// alone.
func (f *Flat) relationValue(c *Chunk) (v uint64, ok bool) {
	sp := f.shape.spans[c.relSlot]
	if !sp.bound {
		return 0, false
	}
	var q int
	switch c.Rel.Kind {
	case SizeOf:
		q = f.size(sp.lo, sp.hi)
	case CountOf:
		q = int(sp.kids)
	case OffsetOf:
		q = f.size(0, sp.lo)
	}
	q += c.Rel.Adjust
	if q < 0 {
		q = 0
	}
	return uint64(q) & widthMask(c.Width), true
}

// checksum computes fixup field c's checksum over the serialized bytes of
// the chunks it covers, in declaration order; absent chunks cover nothing.
func (f *Flat) checksum(c *Chunk) uint64 {
	buf := f.buf[:0]
	for _, slot := range c.fixSlots {
		if sp := f.shape.spans[slot]; sp.bound {
			for _, n := range f.Leaves[sp.lo:sp.hi] {
				buf = append(buf, n.Data...)
			}
		}
	}
	f.buf = buf
	return Checksum(c.Fix.Kind, buf)
}

// VerifyFixups reports whether every fixup field currently matches the
// checksum of the bytes it covers, and whether every size/count/offset
// relation holds — the conditions ApplyFixups establishes, checked through
// the same plan and bindings.
func (f *Flat) VerifyFixups() bool { return f.violation() < 0 }

// violation returns the index of the first leaf VerifyFixups rejects —
// relations first, then checksums, each in document order — or -1.
func (f *Flat) violation() int {
	for _, i := range f.shape.rels {
		n := f.Leaves[i]
		if v, ok := f.relationValue(n.Chunk); ok && n.Uint() != v {
			return int(i)
		}
	}
	for _, i := range f.shape.fixes {
		n := f.Leaves[i]
		sum := f.checksum(n.Chunk)
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

// Clone returns a copy of f that shares nothing with it — leaf nodes, leaf
// bytes and shape are its own — for retaining an instance whose source is
// scratch (a Cracker's). Number leaves keep their bytes inline; the others
// share one buffer, each capped at its own length.
func (f *Flat) Clone() *Flat {
	g := &Flat{Leaves: make([]*Node, len(f.Leaves))}
	nodes := make([]Node, len(f.Leaves))
	var buf []byte
	for _, s := range f.Leaves {
		if !s.inline() {
			buf = append(buf, s.Data...)
		}
	}
	off := 0
	for i, s := range f.Leaves {
		n := &nodes[i]
		n.Chunk = s.Chunk
		switch k := len(s.Data); {
		case s.inline():
			n.Data = n.store[:k]
			copy(n.Data, s.Data)
		case k > 0:
			n.Data = buf[off : off+k : off+k]
			off += k
		}
		g.Leaves[i] = n
	}
	g.own = shape{
		spans: append([]span(nil), f.shape.spans...),
		rels:  append([]int32(nil), f.shape.rels...),
		fixes: append([]int32(nil), f.shape.fixes...),
	}
	g.shape = &g.own
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

// VerifyFixups is Flat.VerifyFixups on an instance tree. Crackers use it to
// reject corrupt packets; tests use it to state the fixup invariant.
func (m *Model) VerifyFixups(root *Node) bool {
	f := m.Flatten(flatPool.Get().(*Flat), root)
	defer f.release()
	return f.VerifyFixups()
}
