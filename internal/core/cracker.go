package core

import (
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
// every data model; for each model whose parse is legal, add every sub-tree
// puzzle of the instance to the corpus. The instance is also retained per
// model as a feedback-selected base for "mutation on existing chunks".
func (e *Engine) crackValuable(seed []byte, depth int) {
	// Under the adaptive scheduler, copy the trace's edge list (collected
	// by observe's walk) once — shared by every model's retained entry and
	// by the distillation tracker — and record which corpus puzzles this
	// seed's cracks added.
	var edges []uint16
	var refs []puzzleRef
	if e.sched.on {
		edges = append(make([]uint16, 0, depth), e.sched.traceEdges...)
	}
	for mi, m := range e.cfg.Models { // line 4: for M in S_M
		if !e.crk.Crack(m, seed) { // lines 5-6: PARSE, LEGAL
			continue
		}
		// Retained flat, sealed: a draft starts from it per execution.
		q := append(e.valuable[mi], valuableSeed{ins: e.crk.Flat().Clone(), depth: depth, edges: edges})
		if len(q) > valuablePerModel {
			q = q[1:]
		}
		e.valuable[mi] = q
		refs = e.addPuzzles(m.Name, refs) // lines 8-18: DFS
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

// addPuzzles is the DFS procedure of Algorithm 2 over the instance the
// cracker just accepted: the puzzle of a leaf is its own content, the
// puzzle of an interior node the in-order concatenation of its children's,
// and every sub-tree contributes one, children before parents.
//
// Leaf puzzles are stored under the leaf's construction-rule signature so
// they can donate to same-rule chunks of other models (Algorithm 3). An
// interior node's puzzle is stored under its structural signature — "blk("
// + its children's signatures, comma-joined, + ")": two sub-trees with
// equal signatures instantiate interchangeable rule sequences, so such
// block-level puzzles can donate whole sub-structures.
//
// Under the adaptive scheduler the refs of the puzzles actually added are
// appended to refs, for the distillation tracker.
func (e *Engine) addPuzzles(model string, refs []puzzleRef) []puzzleRef {
	for i := 0; i < e.crk.Puzzles(); i++ {
		sig, data := e.crk.Puzzle(i)
		if p, added := e.corp.AddCopy(sig, data, model); added && e.sched.on {
			refs = append(refs, puzzleRef{sig: p.Signature, data: p.Data})
		}
	}
	return refs
}
