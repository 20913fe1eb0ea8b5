package datamodel

import "repro/internal/rng"

// Generate instantiates the model into a default instance tree: every leaf
// takes its declared default, arrays take one element, choices take their
// first alternative. Relations and fixups are then established, so the
// result is a legal packet — the starting point of Algorithm 1 before any
// mutator runs.
func (m *Model) Generate() *Node { return m.GenerateInto(nil) }

// GenerateInto is Generate drawing all nodes, child slices and leaf bytes
// from the arena (nil means the heap) — the engine's per-iteration path.
// The default instance is a pure function of the model, so it is built and
// fixed up once, on first use, and every call clones it.
func (m *Model) GenerateInto(a *Arena) *Node {
	m.defaultOnce.Do(m.buildDefault)
	return m.defaultInst.CloneInto(a)
}

// DefaultFlat returns the flat form of the default instance, fixed up and
// sealed: a pure function of the model, built on first use and shared
// read-only — the base of the engine's drafts.
func (m *Model) DefaultFlat() *Flat {
	m.defaultOnce.Do(m.buildDefault)
	return &m.defaultFlat
}

// buildDefault generates the heap-backed default instance GenerateInto
// clones and DefaultFlat flattens; nothing writes to it afterwards.
func (m *Model) buildDefault() {
	m.defaultInst = generateChunk(nil, m.root(), nil)
	m.Flatten(&m.defaultFlat, m.defaultInst).ApplyFixups()
	m.defaultFlat.Seal()
}

// GenerateRandomFlat instantiates the model with randomized leaf content:
// numbers draw from their legal set (or uniformly), variable-size fields
// draw a size in range, choices pick a random alternative, arrays a random
// small count. Tokens keep their defaults — they define the packet type.
// Fixups are applied, so the output is structurally legal. This is the
// "random generation" mutator class of §II. Nodes come from the arena
// (nil = heap), and the instance's flat form is left in f, sealed — the one
// walk File Fixup needs anyway, so the engine's randomized skeleton costs no
// second one.
func (m *Model) GenerateRandomFlat(f *Flat, a *Arena, r *rng.RNG) *Node {
	n := generateChunk(a, m.root(), r)
	m.Flatten(f, n).ApplyFixups()
	f.Seal()
	return n
}

// generateChunk builds the instance subtree for c. A nil RNG requests the
// deterministic default instance.
func generateChunk(a *Arena, c *Chunk, r *rng.RNG) *Node {
	n := a.Node()
	n.Chunk = c
	switch c.Kind {
	case Number:
		v := c.Default
		if r != nil && !c.Token && c.Rel == nil && c.Fix == nil {
			switch {
			case len(c.Legal) > 0:
				v = rng.Pick(r, c.Legal)
			default:
				v = r.Uint64() & widthMask(c.Width)
			}
		}
		n.Data = n.store[:c.Width]
		putUint(n.Data, v, c.Endian)
	case String, Blob:
		n.Data = defaultPayload(a, c, r)
	case Block:
		n.Children = a.Children(len(c.Children))
		for _, ch := range c.Children {
			n.Children = append(n.Children, generateChunk(a, ch, r))
		}
	case Choice:
		alt := c.Children[0]
		if r != nil {
			alt = rng.Pick(r, c.Children)
		}
		n.Children = append(a.Children(1), generateChunk(a, alt, r))
	case Array:
		count := 1
		if r != nil {
			count = r.Range(1, arrayBound(c))
		}
		n.Children = a.Children(count)
		for i := 0; i < count; i++ {
			n.Children = append(n.Children, generateChunk(a, c.Children[0], r))
		}
	}
	return n
}

// defaultPayload produces leaf bytes for a String or Blob chunk.
func defaultPayload(a *Arena, c *Chunk, r *rng.RNG) []byte {
	size := c.Size
	if size == Variable {
		size = c.MinSize
		if r != nil {
			size = r.Range(c.MinSize, maxSize(c))
		}
		if len(c.DefaultBytes) >= c.MinSize && (maxSize(c) == 0 || len(c.DefaultBytes) <= maxSize(c)) && r == nil {
			size = len(c.DefaultBytes)
		}
	}
	out := a.Bytes(size)
	if len(c.DefaultBytes) > 0 {
		copy(out, c.DefaultBytes)
	}
	if r != nil {
		if c.Kind == String {
			for i := range out {
				out[i] = byte('a' + r.Intn(26))
			}
		} else {
			for i := range out {
				out[i] = r.Byte()
			}
		}
	} else if c.Kind == String && len(c.DefaultBytes) == 0 {
		for i := range out {
			out[i] = 'A'
		}
	}
	return out
}

// maxSize returns the effective maximum size of a variable chunk.
func maxSize(c *Chunk) int {
	if c.MaxSize > 0 {
		return c.MaxSize
	}
	return c.MinSize + 32
}

// arrayBound returns the generation bound for an Array chunk.
func arrayBound(c *Chunk) int {
	if c.MaxCount > 0 {
		return c.MaxCount
	}
	return 4
}

// widthMask returns the value mask for a width-byte number.
func widthMask(width int) uint64 {
	if width >= 8 {
		return ^uint64(0)
	}
	return (1 << (8 * width)) - 1
}
