package datamodel

// Arena is a per-engine bump allocator for the execution hot path. What a
// generation round makes and throws away — a randomized skeleton's nodes and
// child slices, mutated leaf bytes, the rendered seeds — comes from it as
// pointer bumps over slabs that are reset once per round.
//
// Lifetime contract: everything handed out by an arena dies at the next
// Reset. Callers must copy anything that outlives the iteration (the engine
// does: the crash bank, the corpus and the valuable-instance queue all copy
// on retention, and cracked trees are built on the heap, never the arena).
//
// Slabs grow to the campaign's high-water mark: a request that does not fit
// the current slab falls back to the heap (correct, merely an allocation)
// and records the shortfall; Reset then grows the slab so the next
// iteration fits. After warm-up, steady state performs zero slab growth.
//
// A nil *Arena is valid and degrades every method to plain heap allocation,
// so tree-building code can be written once and run with or without an
// arena. An Arena is not safe for concurrent use; each worker engine owns
// one.
type Arena struct {
	nodes    []Node
	nodeOff  int
	nodeMiss int

	ptrs    []*Node
	ptrOff  int
	ptrMiss int

	buf     []byte
	bufOff  int
	bufMiss int
}

// Reset recycles every slab, growing any that overflowed last iteration.
func (a *Arena) Reset() {
	if a.nodeMiss > 0 {
		a.nodes = make([]Node, grown(len(a.nodes), a.nodeMiss))
		a.nodeMiss = 0
	}
	if a.ptrMiss > 0 {
		a.ptrs = make([]*Node, grown(len(a.ptrs), a.ptrMiss))
		a.ptrMiss = 0
	}
	if a.bufMiss > 0 {
		a.buf = make([]byte, grown(len(a.buf), a.bufMiss))
		a.bufMiss = 0
	}
	a.nodeOff, a.ptrOff, a.bufOff = 0, 0, 0
}

// grown sizes a slab to fit last iteration's demand with doubling headroom.
func grown(have, miss int) int {
	need := have + miss
	if need < 64 {
		need = 64
	}
	return 2 * need
}

// Node returns a zeroed node that lives until the next Reset.
func (a *Arena) Node() *Node {
	if a == nil || a.nodeOff == len(a.nodes) {
		if a != nil {
			a.nodeMiss++
		}
		// Slab-exhaustion fallback; misses are counted and the next Reset grows the slab.
		return &Node{}
	}
	n := &a.nodes[a.nodeOff]
	a.nodeOff++
	*n = Node{}
	return n
}

// Children returns a zero-length child slice with capacity n. Appending
// beyond n reallocates onto the heap, which is safe — merely unarenaed.
func (a *Arena) Children(n int) []*Node {
	if a == nil || a.ptrOff+n > len(a.ptrs) {
		if a != nil {
			a.ptrMiss += n
		}
		return make([]*Node, 0, n)
	}
	s := a.ptrs[a.ptrOff : a.ptrOff : a.ptrOff+n]
	a.ptrOff += n
	return s
}

// Bytes returns a zeroed byte slice of length n.
func (a *Arena) Bytes(n int) []byte {
	b := a.Buffer(n)[:n]
	clear(b)
	return b
}

// Buffer returns a zero-length byte slice with capacity n, for callers that
// overwrite every byte (seed rendering via Node.AppendTo).
func (a *Arena) Buffer(n int) []byte {
	if a == nil || a.bufOff+n > len(a.buf) {
		if a != nil {
			a.bufMiss += n
		}
		return make([]byte, 0, n)
	}
	s := a.buf[a.bufOff : a.bufOff : a.bufOff+n]
	a.bufOff += n
	return s
}
