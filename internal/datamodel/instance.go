package datamodel

import (
	"fmt"
	"strings"
)

// Node is one node of an instantiation tree (Definition 1): the same shape
// as the model tree, but with leaves carrying realistic data bytes instead
// of construction rules.
//
// Nodes are always used through pointers; copying a Node value whose Data
// aliases its inline store would leave the copy's Data pointing at the
// original.
type Node struct {
	Chunk    *Chunk
	Data     []byte  // leaf payload (Number: Width bytes in wire order)
	Children []*Node // interior node children
	// store inlines short leaf payloads — every Number leaf (≤ 8 wire
	// bytes) encodes here instead of a heap slice, so SetUint and the
	// fixup pass allocate nothing.
	store [8]byte
}

// IsLeaf reports whether the node carries data directly.
func (n *Node) IsLeaf() bool {
	k := n.Chunk.Kind
	return k == Number || k == String || k == Blob
}

// Bytes renders the subtree to wire bytes by in-order concatenation of leaf
// data — the JOINT operation of Algorithms 1 and 2. One buffer is pre-sized
// via Len, so rendering is a single allocation regardless of depth.
func (n *Node) Bytes() []byte {
	return n.AppendTo(make([]byte, 0, n.Len()))
}

// AppendTo appends the subtree's wire bytes to dst and returns it — the
// allocation-free JOINT: callers render into a reused or pre-sized buffer
// (see Len) instead of paying the per-level append cascade Bytes once did.
func (n *Node) AppendTo(dst []byte) []byte {
	if n.IsLeaf() {
		return append(dst, n.Data...)
	}
	for _, c := range n.Children {
		dst = c.AppendTo(dst)
	}
	return dst
}

// Len returns the serialized byte length of the subtree without allocating
// the bytes.
func (n *Node) Len() int {
	if n.IsLeaf() {
		return len(n.Data)
	}
	total := 0
	for _, c := range n.Children {
		total += c.Len()
	}
	return total
}

// Clone deep-copies the subtree onto the heap.
func (n *Node) Clone() *Node { return n.CloneInto(nil) }

// CloneInto deep-copies the subtree, drawing nodes, child slices and leaf
// bytes from the arena (nil means the heap). Short leaf payloads land in
// the clone's inline store. The clone shares nothing with the original, so
// arena-backed clones of retained instances are safe to mutate and discard.
func (n *Node) CloneInto(a *Arena) *Node {
	out := a.Node()
	out.Chunk = n.Chunk
	if n.Data != nil {
		if len(n.Data) <= len(out.store) {
			out.Data = out.store[:len(n.Data)]
		} else {
			out.Data = a.Bytes(len(n.Data))
		}
		copy(out.Data, n.Data)
	}
	if len(n.Children) > 0 {
		out.Children = a.Children(len(n.Children))
		for _, c := range n.Children {
			out.Children = append(out.Children, c.CloneInto(a))
		}
	}
	return out
}

// Find returns the first node in document order whose chunk has the given
// name, or nil.
func (n *Node) Find(name string) *Node {
	if n.Chunk.Name == name {
		return n
	}
	for _, c := range n.Children {
		if got := c.Find(name); got != nil {
			return got
		}
	}
	return nil
}

// Uint decodes a Number leaf's data according to its width and endianness.
// It panics on non-Number nodes (a programming error, not a data error).
func (n *Node) Uint() uint64 {
	if n.Chunk.Kind != Number {
		panic(fmt.Sprintf("datamodel: Uint on %s node %q", n.Chunk.Kind, n.Chunk.Name))
	}
	return decodeUint(n.Data, n.Chunk.Endian)
}

// SetUint encodes v into the Number leaf's data, in place into the node's
// inline store — no allocation. The leaf's Data is repointed at the store,
// detaching it from whatever backing (cracked bytes, a donor puzzle) it had
// before, so the previous backing is never written through.
func (n *Node) SetUint(v uint64) {
	if n.Chunk.Kind != Number {
		panic(fmt.Sprintf("datamodel: SetUint on %s node %q", n.Chunk.Kind, n.Chunk.Name))
	}
	n.Data = n.store[:n.Chunk.Width]
	putUint(n.Data, v, n.Chunk.Endian)
}

// Leaves appends all leaf nodes in document order to dst and returns it.
func (n *Node) Leaves(dst []*Node) []*Node {
	if n.IsLeaf() {
		return append(dst, n)
	}
	for _, c := range n.Children {
		dst = c.Leaves(dst)
	}
	return dst
}

// String renders a compact single-line description of the subtree, intended
// for debugging and crash reports.
func (n *Node) String() string {
	var b strings.Builder
	n.describe(&b)
	return b.String()
}

func (n *Node) describe(b *strings.Builder) {
	if n.IsLeaf() {
		if n.Chunk.Kind == Number {
			fmt.Fprintf(b, "%s=%d", n.Chunk.Name, n.Uint())
		} else {
			fmt.Fprintf(b, "%s=%x", n.Chunk.Name, n.Data)
		}
		return
	}
	fmt.Fprintf(b, "%s{", n.Chunk.Name)
	for i, c := range n.Children {
		if i > 0 {
			b.WriteByte(' ')
		}
		c.describe(b)
	}
	b.WriteByte('}')
}

// putUint encodes v's low len(dst) bytes into dst (≤ 8 bytes) in the given
// byte order.
func putUint(dst []byte, v uint64, e Endian) {
	if e == Big {
		for i := len(dst) - 1; i >= 0; i-- {
			dst[i] = byte(v)
			v >>= 8
		}
	} else {
		for i := range dst {
			dst[i] = byte(v)
			v >>= 8
		}
	}
}

// decodeUint is the inverse of putUint.
func decodeUint(data []byte, e Endian) uint64 {
	var v uint64
	if e == Big {
		for _, b := range data {
			v = v<<8 | uint64(b)
		}
	} else {
		for i := len(data) - 1; i >= 0; i-- {
			v = v<<8 | uint64(data[i])
		}
	}
	return v
}
