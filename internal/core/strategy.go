package core

import (
	"repro/internal/corpus"
	"repro/internal/datamodel"
	"repro/internal/rng"
)

// baselineGenerate implements Algorithm 1's per-iteration body for one
// model: ANALYZE the chunks, GENERATE with Peach's inherent mutators, JOINT
// in declared order. Like Peach, one test case perturbs a small number of
// elements — usually one — while the rest keep their model values; that is
// what lets generation-based fuzzing carry packets past framing and
// integrity validation (§I). Relations and fixups are re-established on
// output, with a small probability of being left stale, matching Peach
// mutators that target integrity fields themselves.
func (e *Engine) baselineGenerate(m *datamodel.Model) []byte {
	e.skeleton(m)
	// Mutate 1..3 leaves, geometrically biased toward 1.
	k := 1
	for k < 3 && e.r.Chance(3) {
		k++
	}
	for ; k > 0; k-- {
		e.mutateLeaf(rng.Pick(e.r, e.work.Leaves))
	}
	if !e.r.Chance(8) {
		e.work.ApplyFixups()
	}
	return e.work.Render(&e.arena)
}

// skeleton picks the structural starting point for generation: the default
// instance, occasionally a structurally randomized one (random choice
// alternatives, array counts, field draws), or — once feedback has
// retained some — a coverage-selected valuable instance of this model
// ("mutation on existing chunks", §II, guided by §IV-B's feedback). The
// skeleton lands in e.work, arena-backed: it lives exactly one generation
// round. The default and valuable instances are flattened once, when built
// or retained, and only their leaf tables are copied here; a randomized one
// is a fresh tree and is flattened as it is made.
func (e *Engine) skeleton(m *datamodel.Model) {
	if q := e.valuable[m.Name]; len(q) > 0 && e.r.Chance(4) {
		e.work.CopyFrom(e.pickValuable(q), &e.arena)
		return
	}
	if e.r.Chance(8) {
		m.GenerateRandomFlat(&e.work, &e.arena, e.r)
		return
	}
	e.work.CopyFrom(m.DefaultFlat(), &e.arena)
}

// mutateLeaf rewrites one leaf's bytes with a selected applicable mutator —
// uniform by default, yield-weighted under the adaptive scheduler (see
// pickMutator). The new bytes come from the engine arena and live exactly
// as long as the instance tree they are written into — one generation
// round.
func (e *Engine) mutateLeaf(leaf *datamodel.Node) {
	mut := e.pickMutator(leaf.Chunk)
	if mut == nil {
		return
	}
	leaf.Data = mut.Mutate(e.r, leaf.Chunk, leaf.Data, &e.arena)
}

// semanticGenerate implements Algorithm 3: construct a batch of seeds for
// model m by filling each chunk position with donor puzzles from the
// corpus where available and with the inherent rule otherwise, then apply
// File Fixup (§IV-D). The donor cartesian product is enumerated up to
// MaxBatch seeds (the paper's p×q enumeration, bounded). The batch is
// appended to e.pending.
func (e *Engine) semanticGenerate(m *datamodel.Model) {
	// Donor recombination starts from a structurally sound base: the
	// default instance or a coverage-selected valuable one — never the
	// fully randomized skeleton, whose scrambled framing would waste the
	// whole batch.
	skeleton := m.DefaultFlat()
	if q := e.valuable[m.Name]; len(q) > 0 && e.r.Bool() {
		skeleton = e.pickValuable(q)
	}
	e.work.CopyFrom(skeleton, &e.arena)
	leaves := e.work.Leaves

	// Candidate donors per position (GETDONOR, Algorithm 3 line 10). The
	// cross-model filter writes into engine-owned per-position scratch
	// (donorScr), the same pattern as e.cands itself, so semantic rounds
	// allocate nothing here in steady state.
	e.cands = e.cands[:0]
	for len(e.donorScr) < len(leaves) {
		e.donorScr = append(e.donorScr, nil)
	}
	anyDonor := false
	for i, leaf := range leaves {
		var donors []corpus.Puzzle
		if e.cfg.DisableCrossModel {
			donors = e.corp.Donors(leaf.Chunk)
		} else {
			donors, e.donorScr[i] = e.corp.CrossModelDonorsInto(e.donorScr[i], leaf.Chunk, m.Name)
		}
		e.cands = append(e.cands, donors)
		if len(donors) > 0 {
			anyDonor = true
		}
	}
	if !anyDonor {
		return
	}
	candidates := e.cands

	// The donor cartesian product (Algorithm 3's p×q) is materialized
	// exactly while it stays small; past MaxBatch it is sampled instead.
	// Unbounded enumeration would flood the execution budget with
	// near-duplicate packets and starve exploration — the opposite of
	// the paper's intent of "ruling out meaningless repetitions".
	product := 1
	for _, donors := range candidates {
		n := len(donors)
		if n == 0 {
			n = 1 // inherent rule counts as one candidate (§IV-D)
		}
		product *= n + 1 // +1: the skeleton's own content
		if product > e.cfg.MaxBatch {
			break
		}
	}
	clear(e.dedup)
	if product <= e.cfg.MaxBatch {
		e.enumerateBatch(leaves, candidates)
	} else {
		e.sampleBatch(leaves, candidates)
	}
}

// enumerateBatch is the literal recursion of Algorithm 3: every candidate
// combination becomes one seed. The skeleton's own content participates as
// one candidate per position, so fresh chunks mix with donated ones. Donor
// bytes are aliased, not copied, into the working instance: puzzles are
// immutable once stored and the fixup pass never writes through a donatable
// leaf (Donatable excludes relation/fixup/token chunks), so the alias is
// read-only for its whole lifetime.
func (e *Engine) enumerateBatch(leaves []*datamodel.Node, candidates [][]corpus.Puzzle) {
	var construct func(pos int)
	construct = func(pos int) {
		if len(e.pending) >= e.cfg.MaxBatch {
			return
		}
		if pos == len(leaves) { // EQUAL(CurPos, Size+1)
			e.appendSeed()
			return
		}
		leaf := leaves[pos]
		saved := leaf.Data
		construct(pos + 1) // skeleton's own content
		for _, donor := range candidates[pos] {
			if len(e.pending) >= e.cfg.MaxBatch {
				break
			}
			leaf.Data = donor.Data
			construct(pos + 1)
		}
		leaf.Data = saved
	}
	construct(0)
}

// sampleBatch draws sampleBatchSize independent points from the product
// space: each donor-eligible position takes a random donor with
// probability 1/2 (occasionally mutated), otherwise keeps the skeleton's
// content. Batches stay small and diverse.
const sampleBatchSize = 3

func (e *Engine) sampleBatch(leaves []*datamodel.Node, candidates [][]corpus.Puzzle) {
	for k := 0; k < sampleBatchSize && len(e.pending) < e.cfg.MaxBatch; k++ {
		e.saved = e.saved[:0]
		for i, leaf := range leaves {
			e.saved = append(e.saved, leaf.Data)
			donors := candidates[i]
			if len(donors) == 0 || e.r.Bool() {
				continue
			}
			leaf.Data = rng.Pick(e.r, donors).Data
			// A light mutation on top of a donor probes the
			// neighbourhood of known-good content.
			if e.r.Chance(8) {
				e.mutateLeaf(leaf)
			}
		}
		e.appendSeed()
		for i, leaf := range leaves {
			leaf.Data = e.saved[i]
		}
	}
}

// appendSeed finishes the working instance — File Fixup unless ablated:
// donated chunks may have changed sizes, so size-of fields and checksums
// must be re-established for the packet to stay legal — renders it, and
// appends it to the pending batch unless the batch already contains an
// identical packet. The map[string]bool lookup over string(seed) does not
// allocate; only genuinely new seeds pay for a key.
func (e *Engine) appendSeed() {
	if !e.cfg.DisableFixup {
		e.work.ApplyFixups()
	}
	seed := e.work.Render(&e.arena)
	if e.dedup[string(seed)] {
		return
	}
	e.dedup[string(seed)] = true
	e.pending = append(e.pending, seed)
}
