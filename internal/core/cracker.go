package core

import (
	"repro/internal/corpus"
	"repro/internal/datamodel"
	"repro/internal/rng"
)

// valuablePerModel bounds the retained coverage-increasing instances per
// model.
const valuablePerModel = 32

// valuableSeed is one retained coverage-increasing instance together with
// the depth (edge count) of the trace that made it valuable. Depth guides
// base selection: a packet that was valuable for tripping an early
// validation branch is a poor mutation base compared to one that ran deep
// into the service logic.
//
// Under the adaptive scheduler the seed also carries the edge list of its
// trace and a cached rarity score over it (refreshed periodically from the
// campaign's hit counters); both stay nil/0 otherwise.
type valuableSeed struct {
	ins   *datamodel.Flat
	depth int
	edges []uint16
	score uint64
}

// crackValuable implements Algorithm 2: try to crack the valuable seed with
// every data model; for each model whose parse is legal, DFS the
// instantiation tree and add every sub-tree puzzle to the corpus. The
// instance is also retained per model as a feedback-selected base for
// "mutation on existing chunks".
func (e *Engine) crackValuable(seed []byte, depth int) {
	// Under the adaptive scheduler, capture the trace's edge list once —
	// shared by every model's retained entry and by the distillation
	// tracker — and record which corpus puzzles this seed's cracks added.
	var edges []uint16
	var refs []puzzleRef
	if e.sched.on {
		edges = e.exec.Tracer().AppendEdges(make([]uint16, 0, depth))
	}
	for _, m := range e.cfg.Models { // line 4: for M in S_M
		ins, err := m.Crack(seed) // line 5: PARSE
		if err != nil {
			continue // line 6: LEGAL failed
		}
		// Retained flat: skeleton copies the leaf table per execution, so
		// the one tree walk is paid here, once.
		flat := m.Flatten(new(datamodel.Flat), ins)
		q := append(e.valuable[m.Name], valuableSeed{ins: flat, depth: depth, edges: edges})
		if len(q) > valuablePerModel {
			q = q[1:]
		}
		e.valuable[m.Name] = q
		if e.sched.on {
			_, refs = collectPuzzlesTracked(e.corp, m.Name, ins, refs)
		} else {
			collectPuzzles(e.corp, m.Name, ins) // lines 8-18: DFS
		}
	}
	if e.sched.on {
		e.sched.trackContributor(edges, refs)
	}
}

// pickValuable selects a retained instance. Default: a tournament
// preferring deeper traces — three uniform draws, keep the deepest. Under
// the adaptive scheduler: one draw weighted by cached edge rarity, so
// seeds touching rarely-reached program states become the preferred bases
// (falling back to the tournament until the first rarity refresh).
func (e *Engine) pickValuable(q []valuableSeed) *datamodel.Flat {
	if e.sched.on {
		if ins := e.pickValuableRare(q); ins != nil {
			return ins
		}
	}
	best := rng.Pick(e.r, q)
	for i := 0; i < 2; i++ {
		if c := rng.Pick(e.r, q); c.depth > best.depth {
			best = c
		}
	}
	return best.ins
}

// collectPuzzles is the DFS procedure of Algorithm 2: the puzzle of a leaf
// is its own content; the puzzle of an interior node is the in-order
// concatenation of its children's puzzles. Every sub-tree contributes one
// puzzle to the corpus.
//
// Leaf puzzles are stored under the leaf's construction-rule signature so
// they can donate to same-rule chunks of other models (Algorithm 3). An
// interior node's puzzle is stored under its structural signature (see
// nodeSignature); such block-level puzzles can donate whole sub-structures.
func collectPuzzles(corp *corpus.Corpus, model string, n *datamodel.Node) []byte {
	if n.IsLeaf() {
		corp.AddNode(model, n)
		return n.Data
	}
	var puzzle []byte
	for _, c := range n.Children {
		puzzle = append(puzzle, collectPuzzles(corp, model, c)...) // JOINT
	}
	corp.Add(corpus.Puzzle{
		Signature: nodeSignature(n),
		Data:      append([]byte(nil), puzzle...),
		Model:     model,
	})
	return puzzle
}

// nodeSignature computes the structural construction-rule signature of an
// instance sub-tree: leaves contribute their chunk's rule signature,
// interior nodes the ordered composition of their children's. Two sub-trees
// with equal signatures instantiate interchangeable rule sequences — the
// whole-block analogue of §III's chunk similarity.
func nodeSignature(n *datamodel.Node) string {
	if n.IsLeaf() {
		return datamodel.RuleSignature(n.Chunk)
	}
	sig := "blk("
	for i, c := range n.Children {
		if i > 0 {
			sig += ","
		}
		sig += nodeSignature(c)
	}
	return sig + ")"
}
