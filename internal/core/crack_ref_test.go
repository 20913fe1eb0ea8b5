package core

import (
	"errors"
	"fmt"

	"repro/internal/corpus"
	"repro/internal/datamodel"
)

// This file keeps the tree-walking cracker and puzzle DFS that
// datamodel.Cracker and Engine.addPuzzles replaced, as the reference
// TestCrackMatchesReference holds them to: a recursive parse that builds an
// instance tree and formats an error for every rejected alternative, fixup
// verification through Model.Flatten, and a DFS that re-derives every
// signature from the tree.

var errRefCrack = errors.New("reference crack failed")

// refCrack is the reference PARSE + LEGAL: the instance tree, or an error.
func refCrack(m *datamodel.Model, packet []byte) (*datamodel.Node, error) {
	root := m.Generate().Chunk // the model's root chunk, the one Crack's trees carry
	p := &refCracker{data: packet}
	n, next, err := p.parseAt(root, 0, len(packet))
	if err != nil {
		return nil, err
	}
	if next != len(packet) {
		return nil, fmt.Errorf("%w: %d trailing bytes", errRefCrack, len(packet)-next)
	}
	if !m.VerifyFixups(n) {
		return nil, fmt.Errorf("%w: fixup verification failed", errRefCrack)
	}
	return n, nil
}

type refCracker struct {
	data           []byte
	sized, counted map[string]int
}

func (p *refCracker) parseAt(c *datamodel.Chunk, off, end int) (*datamodel.Node, int, error) {
	switch c.Kind {
	case datamodel.Number:
		if off+c.Width > end {
			return nil, 0, fmt.Errorf("%w: number %q short", errRefCrack, c.Name)
		}
		raw := p.data[off : off+c.Width]
		var v uint64
		if c.Endian == datamodel.Big {
			for _, b := range raw {
				v = v<<8 | uint64(b)
			}
		} else {
			for i := len(raw) - 1; i >= 0; i-- {
				v = v<<8 | uint64(raw[i])
			}
		}
		if c.Token && v != c.Default {
			return nil, 0, fmt.Errorf("%w: token %q", errRefCrack, c.Name)
		}
		if len(c.Legal) > 0 {
			legal := false
			for _, x := range c.Legal {
				legal = legal || x == v
			}
			if !legal {
				return nil, 0, fmt.Errorf("%w: number %q not legal", errRefCrack, c.Name)
			}
		}
		p.recordRelation(c, v)
		return &datamodel.Node{Chunk: c, Data: append([]byte(nil), raw...)}, off + c.Width, nil

	case datamodel.String, datamodel.Blob:
		size := c.Size
		if size == datamodel.Variable {
			if s, ok := p.sized[c.Name]; ok {
				size = s
			} else {
				size = end - off
			}
			if size < c.MinSize || (c.MaxSize > 0 && size > c.MaxSize) {
				return nil, 0, fmt.Errorf("%w: %q size %d out of range", errRefCrack, c.Name, size)
			}
		}
		if off+size > end {
			return nil, 0, fmt.Errorf("%w: %q short", errRefCrack, c.Name)
		}
		return &datamodel.Node{Chunk: c, Data: append([]byte(nil), p.data[off:off+size]...)}, off + size, nil

	case datamodel.Block:
		n := &datamodel.Node{Chunk: c}
		cur := off
		for i, ch := range c.Children {
			childEnd := end
			if s, ok := p.sized[ch.Name]; ok && ch.Kind != datamodel.String && ch.Kind != datamodel.Blob {
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

	case datamodel.Choice:
		var firstErr error
		for _, alt := range c.Children {
			saveS, saveC := cloneIntMap(p.sized), cloneIntMap(p.counted)
			child, next, err := p.parseAt(alt, off, end)
			if err == nil {
				return &datamodel.Node{Chunk: c, Children: []*datamodel.Node{child}}, next, nil
			}
			p.sized, p.counted = saveS, saveC
			if firstErr == nil {
				firstErr = err
			}
		}
		return nil, 0, fmt.Errorf("%w (no alternative of choice %q matched)", firstErr, c.Name)

	case datamodel.Array:
		n := &datamodel.Node{Chunk: c}
		cur := off
		want, haveCount := p.counted[c.Name]
		bound := 1 << 16
		if c.MaxCount > 0 {
			bound = c.MaxCount
		} else if haveCount {
			bound = want
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
				break
			}
			if next == cur {
				break
			}
			n.Children = append(n.Children, child)
			cur = next
		}
		if haveCount && len(n.Children) != want {
			return nil, 0, fmt.Errorf("%w: array %q count", errRefCrack, c.Name)
		}
		return n, cur, nil
	}
	return nil, 0, fmt.Errorf("%w: chunk %q: unknown kind", errRefCrack, c.Name)
}

func (p *refCracker) recordRelation(c *datamodel.Chunk, v uint64) {
	if c.Rel == nil {
		return
	}
	adjusted := int(v) - c.Rel.Adjust
	if adjusted < 0 {
		adjusted = 0
	}
	switch c.Rel.Kind {
	case datamodel.SizeOf:
		if p.sized == nil {
			p.sized = map[string]int{}
		}
		p.sized[c.Rel.Of] = adjusted
	case datamodel.CountOf:
		if p.counted == nil {
			p.counted = map[string]int{}
		}
		p.counted[c.Rel.Of] = adjusted
	}
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

// refCollectPuzzles is the reference DFS of Algorithm 2: every sub-tree
// contributes one puzzle, children first, and under tracked the refs of
// the puzzles actually added are appended to refs.
func refCollectPuzzles(corp *corpus.Corpus, model string, n *datamodel.Node, refs []puzzleRef, tracked bool) ([]byte, []puzzleRef) {
	if n.IsLeaf() {
		if corp.AddNode(model, n) && tracked {
			refs = append(refs, puzzleRef{sig: datamodel.RuleSignature(n.Chunk), data: n.Data})
		}
		return n.Data, refs
	}
	var puzzle []byte
	for _, c := range n.Children {
		var sub []byte
		sub, refs = refCollectPuzzles(corp, model, c, refs, tracked)
		puzzle = append(puzzle, sub...)
	}
	data := append([]byte(nil), puzzle...)
	if corp.Add(corpus.Puzzle{Signature: refNodeSignature(n), Data: data, Model: model}) && tracked {
		refs = append(refs, puzzleRef{sig: refNodeSignature(n), data: data})
	}
	return puzzle, refs
}

// refNodeSignature is the reference structural signature of a sub-tree.
func refNodeSignature(n *datamodel.Node) string {
	if n.IsLeaf() {
		return datamodel.RuleSignature(n.Chunk)
	}
	sig := "blk("
	for i, c := range n.Children {
		if i > 0 {
			sig += ","
		}
		sig += refNodeSignature(c)
	}
	return sig + ")"
}
