package datamodel

import (
	"errors"
	"fmt"
)

// ErrCrack is wrapped by every cracking failure, so callers can cheaply test
// "did this model reject the packet" with errors.Is.
var ErrCrack = errors.New("datamodel: crack failed")

// crackErr builds a wrapped cracking error.
func crackErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCrack, fmt.Sprintf(format, args...))
}

// Crack parses a wire packet against the model, producing an instantiation
// tree (Definition 1), or an error when the packet does not conform. This is
// the PARSE step of Algorithm 2; a nil error corresponds to LEGAL(InsTree).
//
// Cracking rules:
//   - Number: consumes Width bytes; a Token must equal its default; a
//     non-empty Legal set must contain the value.
//   - String/Blob with fixed size: consumes exactly Size bytes.
//   - String/Blob with Variable size: consumes the value of an
//     already-parsed size-of field referring to it, else the remainder of
//     the enclosing region (bounded by MinSize/MaxSize).
//   - Block: children in order.
//   - Choice: alternatives in order, first full parse wins (backtracking).
//   - Array: count-of field if one was parsed, else greedy repetition of
//     the element until the region is exhausted.
//
// The whole packet must be consumed; trailing bytes fail the crack, because
// a puzzle corpus built from misaligned chunks would poison generation.
func (m *Model) Crack(packet []byte) (*Node, error) {
	p := &cracker{model: m, data: packet}
	n, err := p.parse(m.root(), 0, len(packet))
	if err != nil {
		return nil, err
	}
	if p.consumed != len(packet) {
		return nil, crackErr("model %s: %d trailing bytes", m.Name, len(packet)-p.consumed)
	}
	// Integrity check: a packet whose checksums do not verify is not a
	// legal instance (Peach's cracker validates fixups the same way).
	if !m.VerifyFixups(n) {
		return nil, crackErr("model %s: fixup verification failed", m.Name)
	}
	return n, nil
}

// CrackChunk parses data against a single chunk subtree, consuming all of
// it. The semantic-aware generator uses it to graft a donated block-level
// puzzle into a skeleton instance: the donated bytes are only accepted if
// they re-parse as the receiving chunk's structure, so interior relations
// inside the graft stay meaningful.
func CrackChunk(c *Chunk, data []byte) (*Node, error) {
	p := &cracker{data: data}
	n, err := p.parse(c, 0, len(data))
	if err != nil {
		return nil, err
	}
	if p.consumed != len(data) {
		return nil, crackErr("chunk %s: %d trailing bytes", c.Name, len(data)-p.consumed)
	}
	return n, nil
}

// cracker carries parse state: the packet, the rightmost consumed offset,
// and the values of already-parsed relation source fields.
type cracker struct {
	model    *Model
	data     []byte
	consumed int
	// sized maps target-chunk name -> resolved byte size, from parsed
	// size-of fields.
	sized map[string]int
	// counted maps target-chunk name -> resolved element count, from
	// parsed count-of fields.
	counted map[string]int
}

// parse consumes the chunk c from data[off:end], returning the node. end is
// the exclusive bound of the enclosing region.
func (p *cracker) parse(c *Chunk, off, end int) (*Node, error) {
	n, next, err := p.parseAt(c, off, end)
	if err != nil {
		return nil, err
	}
	if next > p.consumed {
		p.consumed = next
	}
	return n, nil
}

// parseAt is the recursive worker: it returns the parsed node and the next
// offset.
func (p *cracker) parseAt(c *Chunk, off, end int) (*Node, int, error) {
	switch c.Kind {
	case Number:
		if off+c.Width > end {
			return nil, 0, crackErr("number %q: need %d bytes at %d, region ends at %d", c.Name, c.Width, off, end)
		}
		raw := p.data[off : off+c.Width]
		v := decodeUint(raw, c.Endian)
		if c.Token && v != c.Default {
			return nil, 0, crackErr("token %q: got %d, want %d", c.Name, v, c.Default)
		}
		if len(c.Legal) > 0 && !containsU64(c.Legal, v) {
			return nil, 0, crackErr("number %q: %d not in legal set", c.Name, v)
		}
		n := &Node{Chunk: c}
		n.Data = n.store[:c.Width]
		copy(n.Data, raw)
		p.recordRelation(c, v)
		return n, off + c.Width, nil

	case String, Blob:
		size := c.Size
		if size == Variable {
			if s, ok := p.sizedFor(c.Name); ok {
				size = s
			} else {
				size = end - off
			}
			if size < c.MinSize {
				return nil, 0, crackErr("%s %q: size %d below minimum %d", c.Kind, c.Name, size, c.MinSize)
			}
			if c.MaxSize > 0 && size > c.MaxSize {
				return nil, 0, crackErr("%s %q: size %d above maximum %d", c.Kind, c.Name, size, c.MaxSize)
			}
		}
		if off+size > end {
			return nil, 0, crackErr("%s %q: need %d bytes at %d, region ends at %d", c.Kind, c.Name, size, off, end)
		}
		n := &Node{Chunk: c, Data: append([]byte(nil), p.data[off:off+size]...)}
		return n, off + size, nil

	case Block:
		n := &Node{Chunk: c}
		cur := off
		for i, ch := range c.Children {
			// A child region may itself be bounded by a size-of
			// field already parsed within this block.
			childEnd := end
			if s, ok := p.sizedFor(ch.Name); ok && ch.Kind != String && ch.Kind != Blob {
				if cur+s <= end {
					childEnd = cur + s
				}
			}
			child, next, err := p.parseAt(ch, cur, childEnd)
			if err != nil {
				return nil, 0, fmt.Errorf("%w (in block %q child %d)", err, c.Name, i)
			}
			n.Children = append(n.Children, child)
			cur = next
		}
		return n, cur, nil

	case Choice:
		var firstErr error
		for _, alt := range c.Children {
			saveS, saveC := cloneIntMap(p.sized), cloneIntMap(p.counted)
			child, next, err := p.parseAt(alt, off, end)
			if err == nil {
				n := &Node{Chunk: c, Children: []*Node{child}}
				return n, next, nil
			}
			// Backtrack relation state recorded by the failed
			// alternative.
			p.sized, p.counted = saveS, saveC
			if firstErr == nil {
				firstErr = err
			}
		}
		return nil, 0, fmt.Errorf("%w (no alternative of choice %q matched)", firstErr, c.Name)

	case Array:
		n := &Node{Chunk: c}
		cur := off
		want, haveCount := p.countedFor(c.Name)
		bound := arrayBound(c)
		if c.MaxCount > 0 {
			bound = c.MaxCount
		} else if haveCount {
			bound = want
		} else {
			bound = 1 << 16 // greedy mode: region-bounded
		}
		for len(n.Children) < bound {
			if haveCount && len(n.Children) == want {
				break
			}
			if !haveCount && cur >= end {
				break
			}
			child, next, err := p.parseAt(c.Children[0], cur, end)
			if err != nil {
				if haveCount {
					return nil, 0, fmt.Errorf("%w (array %q element %d)", err, c.Name, len(n.Children))
				}
				break // greedy: stop at first non-element
			}
			if next == cur {
				break // zero-width element; avoid livelock
			}
			n.Children = append(n.Children, child)
			cur = next
		}
		if haveCount && len(n.Children) != want {
			return nil, 0, crackErr("array %q: parsed %d elements, count field says %d", c.Name, len(n.Children), want)
		}
		return n, cur, nil
	}
	return nil, 0, crackErr("chunk %q: unknown kind", c.Name)
}

// recordRelation notes a parsed relation-source value so later variable
// chunks can resolve their sizes/counts.
func (p *cracker) recordRelation(c *Chunk, v uint64) {
	if c.Rel == nil {
		return
	}
	adjusted := int(v) - c.Rel.Adjust
	if adjusted < 0 {
		adjusted = 0
	}
	switch c.Rel.Kind {
	case SizeOf:
		if p.sized == nil {
			p.sized = map[string]int{}
		}
		p.sized[c.Rel.Of] = adjusted
	case CountOf:
		if p.counted == nil {
			p.counted = map[string]int{}
		}
		p.counted[c.Rel.Of] = adjusted
	}
}

func (p *cracker) sizedFor(name string) (int, bool) {
	s, ok := p.sized[name]
	return s, ok
}

func (p *cracker) countedFor(name string) (int, bool) {
	s, ok := p.counted[name]
	return s, ok
}

func containsU64(xs []uint64, v uint64) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func cloneIntMap(m map[string]int) map[string]int {
	if m == nil {
		return nil
	}
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
