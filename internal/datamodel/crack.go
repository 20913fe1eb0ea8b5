package datamodel

import (
	"errors"
	"fmt"
	"slices"
	"sync"
)

// ErrCrack is wrapped by every cracking failure, so callers can cheaply test
// "did this model reject the packet" with errors.Is.
var ErrCrack = errors.New("datamodel: crack failed")

// Crack parses a wire packet against the model, producing an instantiation
// tree (Definition 1), or an error when the packet does not conform. This is
// the PARSE step of Algorithm 2; a nil error corresponds to LEGAL(InsTree).
// The error names the model, the chunk that failed to parse and its byte
// offset.
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
//
// Crack is Cracker.Crack with the tree built as well; the engine, which
// wants only the flat form and the puzzles, uses a Cracker directly.
func (m *Model) Crack(packet []byte) (*Node, error) {
	p := crackerPool.Get().(*Cracker)
	defer crackerPool.Put(p)
	n, ok := p.run(m, packet, true)
	if !ok {
		return nil, p.Err()
	}
	return n, nil
}

// crackerPool holds the Crackers of Model.Crack, which may run
// concurrently on one model; a pooled one keeps its grown tables.
var crackerPool = sync.Pool{New: func() any { return new(Cracker) }}

// Cracker is the reusable state of Algorithm 2's PARSE and LEGAL steps. One
// parse fills a leaf table, the slot spans of the fixup plan and a log of
// every puzzle in the order the DFS of Algorithm 2 visits them; a failed
// choice alternative or greedy array element truncates them all back to
// where it started. A rejection records its reason as a code and a
// position and builds no message, so once the tables have grown to the
// largest packet seen, cracking allocates nothing whether it accepts or
// rejects.
//
// The zero value is ready to use. A Cracker is not safe for concurrent use;
// each engine owns one.
type Cracker struct {
	root *Chunk // the model's root
	data []byte // the packet, borrowed
	// tree asks for the instance tree too; own is then a heap copy of the
	// packet its String and Blob leaves alias, made at the first of them.
	tree bool
	own  []byte

	leaves []leafAt   // parsed leaves, document order
	rels   []relValue // parsed size-of/count-of values, latest last
	bound  []int32    // slots bound in flat.shape.spans, in binding order
	sig    []byte     // the signature of every node entered, children nested inside parents
	log    []puzzleAt // completed puzzles, post-order
	fail   failure    // why the last crack was rejected
	nodes  []Node     // backing of flat.Leaves
	flat   Flat       // the accepted instance; its leaves alias data
}

// leafAt is one parsed leaf: its chunk and its bytes data[off:next].
type leafAt struct {
	c         *Chunk
	off, next int
}

// relValue is one parsed relation value, keyed by the slot of the chunk it
// measures: a size-of field's byte size or a count-of field's element count.
type relValue struct {
	slot int32
	kind RelKind
	v    int
}

// puzzleAt is one logged puzzle: its signature sig[sigLo:sigHi] and its
// bytes data[off:next]. A crack consumes the packet contiguously, so every
// sub-tree's puzzle — the in-order join of its leaves — is one such range.
type puzzleAt struct {
	sigLo, sigHi, off, next int
}

// mark is a position in every undo log, taken before a tentative parse.
type mark struct {
	leaves, rels, bound, sig, log int
}

// failCode says why a parse was rejected; 0 means it was not.
type failCode uint8

const (
	crackOK failCode = iota
	failShort
	failToken
	failIllegal
	failSmall
	failLarge
	failCount
	failTrailing
	failIntegrity // this code and the ones after it carry no figures
	failKind
)

// failText is each code's reason, with its figures as verbs.
var failText = [...]string{
	failShort:     "need %d bytes, region ends at %d",
	failToken:     "token is %d, want %d",
	failIllegal:   "%[1]d not in legal set",
	failSmall:     "size %d below minimum %d",
	failLarge:     "size %d above maximum %d",
	failCount:     "parsed %d elements, count field says %d",
	failTrailing:  "%[1]d trailing bytes",
	failIntegrity: "relation or checksum does not verify",
	failKind:      "unknown kind", // an unvalidated model's
}

// failure is a rejection as a position: the chunk being parsed, its byte
// offset in the packet, the reason and up to two figures for the message.
type failure struct {
	why  failCode
	c    *Chunk
	off  int
	a, b uint64
}

// Crack parses packet as an instance of m and reports whether it is a legal
// one: fully consumed, every relation and checksum verifying. On acceptance
// Flat and Puzzle describe the instance, on rejection Err says why; either
// holds until the next call. packet is borrowed until then and never
// written.
func (p *Cracker) Crack(m *Model, packet []byte) bool {
	_, ok := p.run(m, packet, false)
	return ok
}

// Flat returns the last accepted instance in flat form, sealed. It is the
// cracker's scratch, so it is read-only and valid until the next Crack: a
// Draft edits it, Clone retains it.
func (p *Cracker) Flat() *Flat { return &p.flat }

// Puzzles returns how many puzzles the last accepted crack logged: one per
// donatable leaf and one per interior node, in the post-order the DFS of
// Algorithm 2 (lines 8-18) adds them to the corpus.
func (p *Cracker) Puzzles() int { return len(p.log) }

// Puzzle returns logged puzzle i: the construction-rule signature of its
// sub-tree (a leaf's RuleSignature; "blk(" + its children's, comma-joined,
// + ")" for an interior node) and its bytes. Both are borrowed until the
// next Crack.
func (p *Cracker) Puzzle(i int) (sig, data []byte) {
	e := p.log[i]
	return p.sig[e.sigLo:e.sigHi], p.data[e.off:e.next]
}

// Err describes why the last crack was rejected, wrapping ErrCrack, or
// returns nil after an acceptance. The message is built here, so only a
// caller that surfaces it pays for it.
func (p *Cracker) Err() error {
	f := p.fail
	if f.why == crackOK {
		return nil
	}
	why := failText[f.why]
	if f.why < failIntegrity {
		why = fmt.Sprintf(why, f.a, f.b)
	}
	return fmt.Errorf("%w: model %s: %s %q at offset %d: %s", ErrCrack, p.root.Name, f.c.Kind, f.c.Name, f.off, why)
}

// run cracks packet against m, returning the tree when tree is set.
func (p *Cracker) run(m *Model, packet []byte, tree bool) (*Node, bool) {
	m.planOnce.Do(m.compilePlan)
	slots, root := m.slots, m.root()
	p.root, p.data, p.tree, p.own = root, packet, tree, nil
	p.leaves, p.rels, p.bound, p.sig, p.log = p.leaves[:0], p.rels[:0], p.bound[:0], p.sig[:0], p.log[:0]
	p.fail = failure{}
	spans := p.flat.shape.spans
	if cap(spans) <= slots {
		spans = make([]span, slots+1)
	}
	p.flat.shape.spans = spans[:slots+1]
	clear(p.flat.shape.spans)

	n, next, why := p.parseAt(root, 0, len(packet))
	if why != crackOK {
		return nil, false
	}
	if next != len(packet) {
		p.failAt(failTrailing, root, next, uint64(len(packet)-next), 0)
		return nil, false
	}
	// Integrity check: a packet whose checksums do not verify is not a
	// legal instance (Peach's cracker validates fixups the same way).
	p.fillFlat()
	if i := p.flat.violation(); i >= 0 {
		l := p.leaves[i]
		p.failAt(failIntegrity, l.c, l.off, 0, 0)
		return nil, false
	}
	p.fail = failure{} // a greedy array's last, failed element left its reason
	return n, true
}

// failAt records a rejection and returns it in parseAt's shape.
func (p *Cracker) failAt(why failCode, c *Chunk, off int, a, b uint64) (*Node, int, failCode) {
	p.fail = failure{why: why, c: c, off: off, a: a, b: b}
	return nil, 0, why
}

// parseAt consumes the chunk c from data[off:end], where end is the
// exclusive bound of the enclosing region, and returns the next offset — and
// the node, when building the tree.
func (p *Cracker) parseAt(c *Chunk, off, end int) (*Node, int, failCode) {
	var n *Node
	if p.tree {
		n = &Node{Chunk: c}
	}
	slot := p.bind(c)
	sigLo := len(p.sig)
	switch c.Kind {
	case Number:
		if off+c.Width > end {
			return p.failAt(failShort, c, off, uint64(c.Width), uint64(end))
		}
		raw := p.data[off : off+c.Width]
		v := decodeUint(raw, c.Endian)
		if c.Token && v != c.Default {
			return p.failAt(failToken, c, off, v, c.Default)
		}
		if len(c.Legal) > 0 && !slices.Contains(c.Legal, v) {
			return p.failAt(failIllegal, c, off, v, 0)
		}
		if n != nil {
			n.Data = n.store[:c.Width]
			copy(n.Data, raw)
		}
		p.recordRelation(c, v)
		return n, p.leaf(c, slot, sigLo, off, off+c.Width), crackOK

	case String, Blob:
		size := c.Size
		if size == Variable {
			if s, ok := p.relation(SizeOf, c); ok {
				size = s
			} else {
				size = end - off
			}
			if size < c.MinSize {
				return p.failAt(failSmall, c, off, uint64(size), uint64(c.MinSize))
			}
			if c.MaxSize > 0 && size > c.MaxSize {
				return p.failAt(failLarge, c, off, uint64(size), uint64(c.MaxSize))
			}
		}
		if off+size > end {
			return p.failAt(failShort, c, off, uint64(size), uint64(end))
		}
		if n != nil && size > 0 {
			if p.own == nil {
				p.own = append([]byte(nil), p.data...)
			}
			n.Data = p.own[off : off+size : off+size]
		}
		return n, p.leaf(c, slot, sigLo, off, off+size), crackOK

	case Block:
		p.sig = append(p.sig, "blk("...)
		cur := off
		for i, ch := range c.Children {
			if i > 0 {
				p.sig = append(p.sig, ',')
			}
			// A child region may itself be bounded by a size-of field
			// already parsed within this block.
			childEnd := end
			if ch.Kind != String && ch.Kind != Blob {
				if s, ok := p.relation(SizeOf, ch); ok && cur+s <= end {
					childEnd = cur + s
				}
			}
			child, next, why := p.parseAt(ch, cur, childEnd)
			if why != crackOK {
				return nil, 0, why
			}
			if n != nil {
				n.Children = append(n.Children, child)
			}
			cur = next
		}
		return n, p.interior(slot, sigLo, off, cur, len(c.Children)), crackOK

	case Choice:
		p.sig = append(p.sig, "blk("...)
		at := p.mark()
		var first failure
		for i, alt := range c.Children {
			child, next, why := p.parseAt(alt, off, end)
			if why == crackOK {
				if n != nil {
					n.Children = []*Node{child}
				}
				return n, p.interior(slot, sigLo, off, next, 1), crackOK
			}
			if i == 0 {
				first = p.fail // the first alternative's reason is the one reported
			}
			p.undo(at, true)
		}
		p.fail = first
		return nil, 0, first.why

	case Array:
		p.sig = append(p.sig, "blk("...)
		want, haveCount := p.relation(CountOf, c)
		bound := 1 << 16 // greedy mode: region-bounded
		if c.MaxCount > 0 {
			bound = c.MaxCount
		} else if haveCount {
			bound = want
		}
		cur, kids := off, 0
		for kids < bound {
			if haveCount && kids == want {
				break
			}
			if !haveCount && cur >= end {
				break
			}
			at := p.mark()
			if kids > 0 {
				p.sig = append(p.sig, ',')
			}
			child, next, why := p.parseAt(c.Children[0], cur, end)
			if why != crackOK && haveCount {
				return nil, 0, why
			}
			if why != crackOK || next == cur {
				// Greedy: stop at the first non-element, or at a
				// zero-width one (no livelock). The element is dropped,
				// but any relation value it parsed stays recorded.
				p.undo(at, false)
				break
			}
			if n != nil {
				n.Children = append(n.Children, child)
			}
			kids++
			cur = next
		}
		if haveCount && kids != want {
			return p.failAt(failCount, c, off, uint64(kids), uint64(want))
		}
		return n, p.interior(slot, sigLo, off, cur, kids), crackOK
	}
	return p.failAt(failKind, c, off, 0, 0)
}

// bind makes c's node the binding of c's slot when it is the first node of
// that slot in document order, returning the slot (0 when it is not).
func (p *Cracker) bind(c *Chunk) int32 {
	s := c.slot
	if s == 0 || p.flat.shape.spans[s].bound {
		return 0
	}
	p.flat.shape.spans[s] = span{lo: int32(len(p.leaves)), bound: true}
	p.bound = append(p.bound, s)
	return s
}

// endSpan ends the span of a node that bound slot, once its leaves and kids
// are known.
func (p *Cracker) endSpan(slot int32, kids int) {
	if slot != 0 {
		sp := &p.flat.shape.spans[slot]
		sp.hi, sp.kids = int32(len(p.leaves)), int32(kids)
	}
}

// leaf completes a leaf node: it joins the leaf table, its rule signature
// joins the signature string and, when donatable, it is logged as a puzzle.
func (p *Cracker) leaf(c *Chunk, slot int32, sigLo, off, next int) int {
	p.sig = append(p.sig, RuleSignature(c)...)
	if Donatable(c) {
		p.log = append(p.log, puzzleAt{sigLo, len(p.sig), off, next})
	}
	p.leaves = append(p.leaves, leafAt{c, off, next})
	p.endSpan(slot, 0)
	return next
}

// interior completes an interior node whose signature opened at sigLo.
func (p *Cracker) interior(slot int32, sigLo, off, next, kids int) int {
	p.sig = append(p.sig, ')')
	p.log = append(p.log, puzzleAt{sigLo, len(p.sig), off, next})
	p.endSpan(slot, kids)
	return next
}

func (p *Cracker) mark() mark {
	return mark{len(p.leaves), len(p.rels), len(p.bound), len(p.sig), len(p.log)}
}

// undo drops everything parsed since at — relation values too when rels is
// set, which is what backtracking a choice alternative does.
func (p *Cracker) undo(at mark, rels bool) {
	for _, s := range p.bound[at.bound:] {
		p.flat.shape.spans[s] = span{}
	}
	p.leaves, p.bound, p.sig, p.log = p.leaves[:at.leaves], p.bound[:at.bound], p.sig[:at.sig], p.log[:at.log]
	if rels {
		p.rels = p.rels[:at.rels]
	}
}

// recordRelation notes a parsed relation-source value so later variable
// chunks can resolve their sizes/counts.
func (p *Cracker) recordRelation(c *Chunk, v uint64) {
	if c.Rel == nil || (c.Rel.Kind != SizeOf && c.Rel.Kind != CountOf) {
		return
	}
	adjusted := int(v) - c.Rel.Adjust
	if adjusted < 0 {
		adjusted = 0
	}
	p.rels = append(p.rels, relValue{slot: c.relSlot, kind: c.Rel.Kind, v: adjusted})
}

// relation returns the latest parsed value of the given kind that measures
// c, if any.
func (p *Cracker) relation(kind RelKind, c *Chunk) (int, bool) {
	if c.slot == 0 {
		return 0, false // no relation names c
	}
	for i := len(p.rels) - 1; i >= 0; i-- {
		if r := p.rels[i]; r.slot == c.slot && r.kind == kind {
			return r.v, true
		}
	}
	return 0, false
}

// fillFlat makes flat the accepted instance: one scratch node per parsed
// leaf, its bytes aliasing the packet; the spans were bound by the parse.
// The leaves tile the packet, so the packet is its sealed wire as it stands.
func (p *Cracker) fillFlat() {
	if cap(p.nodes) < len(p.leaves) {
		p.nodes = make([]Node, 2*len(p.leaves))
	}
	f, s := &p.flat, &p.flat.shape
	f.Leaves, f.offs, f.wire = f.Leaves[:0], append(f.offs[:0], 0), p.data
	s.rels, s.fixes = s.rels[:0], s.fixes[:0]
	for i, l := range p.leaves {
		n := &p.nodes[i]
		n.Chunk, n.Data = l.c, p.data[l.off:l.next:l.next]
		f.offs = append(f.offs, int32(l.next))
		if l.c.Rel != nil && l.c.Kind == Number {
			s.rels = append(s.rels, int32(i))
		}
		if l.c.Fix != nil {
			s.fixes = append(s.fixes, int32(i))
		}
		f.Leaves = append(f.Leaves, n)
	}
}
