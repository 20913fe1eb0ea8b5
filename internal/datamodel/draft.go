package datamodel

// Draft is a working instance: a sealed base Flat, never written, plus
// overrides stamped with the draft's generation, so Reset is O(1), a leaf
// read is one comparison, and ApplyFixups and Render walk only the
// overridden leaves, listed ascending. Each engine owns one Draft.
type Draft struct {
	base  *Flat
	gen   uint32
	slots []override // by leaf index
	dirty []int32    // the overridden leaves, ascending
	moved bool       // some override changed its leaf's length
	buf   []byte     // serialization of the chunks one checksum covers
}

// override is a leaf's bytes while gen is current; own holds fixup output.
type override struct {
	gen  uint32
	data []byte
	own  []byte
}

// Reset makes base, unedited, the draft's instance. base must be sealed.
func (d *Draft) Reset(base *Flat) {
	if len(base.offs) != len(base.Leaves)+1 {
		panic("datamodel: Draft.Reset on an unsealed Flat")
	}
	d.base, d.dirty, d.moved = base, d.dirty[:0], false
	if n := len(base.Leaves); n > len(d.slots) {
		d.slots = append(d.slots, make([]override, n-len(d.slots))...)
	}
	if d.gen++; d.gen == 0 { // wrapped: a stamp 2^32 generations old would read as live
		d.slots, d.gen = make([]override, len(d.slots)), 1
	}
}

// Len and Chunk return the instance's leaf count and leaf i's chunk.
func (d *Draft) Len() int           { return len(d.base.Leaves) }
func (d *Draft) Chunk(i int) *Chunk { return d.base.Leaves[i].Chunk }

// Data returns leaf i's bytes, read-only: its override, or the base's.
func (d *Draft) Data(i int) []byte {
	if s := &d.slots[i]; s.gen == d.gen {
		return s.data
	}
	return d.base.Leaves[i].Data
}

// Set overrides leaf i with data, which the draft aliases and never writes.
func (d *Draft) Set(i int, data []byte) {
	d.stamp(int32(i)).data = data
	if len(data) != int(d.base.offs[i+1]-d.base.offs[i]) {
		d.moved = true
	}
}

// stamp returns leaf i's override, listing i in dirty if it had none.
func (d *Draft) stamp(i int32) *override {
	s := &d.slots[i]
	if s.gen != d.gen {
		s.gen = d.gen
		k := len(d.dirty)
		d.dirty = append(d.dirty, i)
		for ; k > 0 && d.dirty[k-1] > i; k-- {
			d.dirty[k] = d.dirty[k-1]
		}
		d.dirty[k] = i
	}
	return s
}

// own overrides leaf i with n bytes of the draft's storage, for File Fixup.
func (d *Draft) own(i int32, n int) []byte {
	s := d.stamp(i)
	if cap(s.own) < n {
		s.own = make([]byte, max(n, 8))
	}
	s.data = s.own[:n]
	return s.data
}

// ApplyFixups is Flat.ApplyFixups on the draft, with the same result, but
// as the base is a fixed point it re-measures a relation only if its own
// field was edited or some edit changed a length, and recomputes a checksum
// only if an override (fixup output included) lies on it or in its cover.
func (d *Draft) ApplyFixups() {
	b := d.base
	rels := b.shape.rels
	if !d.moved { // no length moved: only an edited relation field can be off
		rels = d.dirty
	}
	if d.setRelations(rels) {
		d.setRelations(rels)
	}
	for _, i := range b.shape.fixes {
		c := b.Leaves[i].Chunk
		if !d.reaches(i, c) {
			continue
		}
		sum := b.shape.checksum(c, &d.buf, d.appendLeaves)
		switch c.Kind {
		case Number:
			d.setUint(i, sum&widthMask(c.Width))
		case Blob:
			if cur := d.Data(int(i)); !sumMatches(cur, sum) {
				putSum(d.own(i, len(cur)), sum)
			}
		}
	}
}

// setRelations is Flat.setRelations over the leaves is.
func (d *Draft) setRelations(is []int32) (resized bool) {
	for _, i := range is {
		c := d.base.Leaves[i].Chunk
		if c.Rel == nil || c.Kind != Number {
			continue
		}
		if v, ok := d.base.shape.relationValue(c, d.size); ok {
			resized = resized || len(d.Data(int(i))) != c.Width
			d.setUint(i, v)
		}
	}
	return resized
}

// setUint makes Number leaf i hold v at its Width, overriding it if need be.
func (d *Draft) setUint(i int32, v uint64) {
	c := d.base.Leaves[i].Chunk
	if cur := d.Data(int(i)); len(cur) == c.Width && decodeUint(cur, c.Endian) == v {
		return
	}
	putUint(d.own(i, c.Width), v, c.Endian)
}

// size is the byte length of leaves [lo,hi) with the overrides in force.
func (d *Draft) size(lo, hi int32) int {
	n := int(d.base.offs[hi] - d.base.offs[lo])
	if d.moved {
		for _, i := range d.dirty {
			if i >= hi {
				break
			}
			if i >= lo {
				n += len(d.slots[i].data) - int(d.base.offs[i+1]-d.base.offs[i])
			}
		}
	}
	return n
}

// reaches reports whether an override lies on checksum field i or in its cover.
func (d *Draft) reaches(i int32, c *Chunk) bool {
	if d.slots[i].gen == d.gen {
		return true
	}
	for _, slot := range c.fixSlots {
		sp := d.base.shape.spans[slot]
		for _, j := range d.dirty {
			if sp.bound && j >= sp.lo && j < sp.hi {
				return true
			}
		}
	}
	return false
}

// appendLeaves appends leaves [lo,hi): the base's wire with the overrides spliced in.
func (d *Draft) appendLeaves(dst []byte, lo, hi int32) []byte {
	b := d.base
	at := lo
	for _, i := range d.dirty {
		if i >= hi {
			break
		}
		if i >= lo {
			dst = append(dst, b.wire[b.offs[at]:b.offs[i]]...)
			dst = append(dst, d.slots[i].data...)
			at = i + 1
		}
	}
	return append(dst, b.wire[b.offs[at]:b.offs[hi]]...)
}

// Render returns the instance's wire bytes (JOINT) in a buffer drawn from the
// arena (nil means the heap), so it lives until the next Arena.Reset.
func (d *Draft) Render(a *Arena) []byte {
	n := int32(len(d.base.Leaves))
	return d.appendLeaves(a.Buffer(d.size(0, n)), 0, n)
}
