package core

import (
	"repro/internal/corpus"
	"repro/internal/datamodel"
	"repro/internal/rng"
)

// baselineGenerate implements Algorithm 1's per-iteration body for model
// cfg.Models[mi]: ANALYZE the chunks, GENERATE with Peach's inherent mutators, JOINT
// in declared order. Like Peach, one test case perturbs a small number of
// elements — usually one — while the rest keep their model values; that is
// what lets generation-based fuzzing carry packets past framing and
// integrity validation (§I). Relations and fixups are re-established on
// output, with a small probability of being left stale, matching Peach
// mutators that target integrity fields themselves.
func (e *Engine) baselineGenerate(mi int) []byte {
	e.skeleton(mi)
	// Mutate 1..3 leaves, geometrically biased toward 1.
	k := 1
	for k < 3 && e.r.Chance(3) {
		k++
	}
	for ; k > 0; k-- {
		e.mutateLeaf(e.r.Intn(e.draft.Len()))
	}
	if !e.r.Chance(8) {
		e.draft.ApplyFixups()
	}
	return e.draft.Render(&e.arena)
}

// skeleton picks the structural starting point for generation: the default
// instance, occasionally a structurally randomized one (random choice
// alternatives, array counts, field draws), or — once feedback has
// retained some — a coverage-selected valuable instance of this model
// ("mutation on existing chunks", §II, guided by §IV-B's feedback). The
// draft starts from the skeleton with no edits. The default and valuable
// instances are flattened and sealed once, when built or retained, and are
// never copied; a randomized one is a fresh arena-backed tree, flattened
// and sealed into e.skel as it is made, that lives one generation round.
func (e *Engine) skeleton(mi int) {
	m := e.cfg.Models[mi]
	if q := e.valuable[mi]; len(q) > 0 && e.r.Chance(4) {
		e.draft.Reset(e.pickValuable(q))
		return
	}
	if e.r.Chance(8) {
		m.GenerateRandomFlat(&e.skel, &e.arena, e.r)
		e.draft.Reset(&e.skel)
		return
	}
	e.draft.Reset(m.DefaultFlat())
}

// mutateLeaf rewrites leaf i of the draft with a selected applicable
// mutator — uniform by default, yield-weighted under the adaptive scheduler
// (see pickMutator). The new bytes come from the engine arena and live one
// generation round.
func (e *Engine) mutateLeaf(i int) {
	c := e.draft.Chunk(i)
	mut := e.pickMutator(c)
	if mut == nil {
		return
	}
	e.draft.Set(i, mut.Mutate(e.r, c, e.draft.Data(i), &e.arena))
}

// semanticGenerate implements Algorithm 3: construct a batch of seeds for
// model cfg.Models[mi] by filling each chunk position with donor puzzles from the
// corpus where available and with the inherent rule otherwise, then apply
// File Fixup (§IV-D). The donor cartesian product is enumerated up to
// maxBatch seeds (the paper's p×q enumeration, bounded). The batch is
// appended to e.pending.
func (e *Engine) semanticGenerate(mi int) {
	m := e.cfg.Models[mi]
	// Donor recombination starts from a structurally sound base: the
	// default instance or a coverage-selected valuable one — never the
	// fully randomized skeleton, whose scrambled framing would waste the
	// whole batch.
	skeleton := m.DefaultFlat()
	if q := e.valuable[mi]; len(q) > 0 && e.r.Bool() {
		skeleton = e.pickValuable(q)
	}
	e.draft.Reset(skeleton)
	n := e.draft.Len()

	// Candidate donors per position (GETDONOR, Algorithm 3 line 10). The
	// cross-model filter writes into engine-owned per-position scratch
	// (donorScr), the same pattern as e.cands itself, so semantic rounds
	// allocate nothing here in steady state.
	e.cands = e.cands[:0]
	for len(e.donorScr) < n {
		e.donorScr = append(e.donorScr, nil)
	}
	anyDonor := false
	for i := 0; i < n; i++ {
		c := e.draft.Chunk(i)
		var donors []corpus.Puzzle
		if e.cfg.DisableCrossModel {
			donors = e.corp.Donors(c)
		} else {
			donors, e.donorScr[i] = e.corp.CrossModelDonorsInto(e.donorScr[i], c, m.Name)
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
	// exactly while it stays small; past maxBatch it is sampled instead.
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
		if product > e.maxBatch {
			break
		}
	}
	clear(e.dedup)
	if product <= e.maxBatch {
		e.enumerateBatch(candidates)
	} else {
		e.sampleBatch(skeleton, candidates)
	}
}

// enumerateBatch is the literal recursion of Algorithm 3: every candidate
// combination becomes one seed. The skeleton's own content participates as
// one candidate per position, so fresh chunks mix with donated ones. Donor
// bytes are aliased, not copied, into the draft, which never writes an
// override's bytes, so the alias is read-only for its whole lifetime. A
// position's content is restored after its donors have had their turn;
// File Fixup's overrides carry over from seed to seed.
func (e *Engine) enumerateBatch(candidates [][]corpus.Puzzle) {
	var construct func(pos int)
	construct = func(pos int) {
		if len(e.pending) >= e.maxBatch {
			return
		}
		if pos == len(candidates) { // EQUAL(CurPos, Size+1)
			e.appendSeed()
			return
		}
		saved := e.draft.Data(pos)
		construct(pos + 1) // skeleton's own content
		for _, donor := range candidates[pos] {
			if len(e.pending) >= e.maxBatch {
				break
			}
			e.draft.Set(pos, donor.Data)
			construct(pos + 1)
		}
		if len(candidates[pos]) > 0 {
			e.draft.Set(pos, saved)
		}
	}
	construct(0)
}

// sampleBatch draws sampleBatchSize independent points from the product
// space: each donor-eligible position takes a random donor with
// probability 1/2 (occasionally mutated), otherwise keeps the skeleton's
// content. Batches stay small and diverse. Each point starts from the
// unedited skeleton.
const sampleBatchSize = 3

func (e *Engine) sampleBatch(skeleton *datamodel.Flat, candidates [][]corpus.Puzzle) {
	for k := 0; k < sampleBatchSize && len(e.pending) < e.maxBatch; k++ {
		e.draft.Reset(skeleton)
		for i, donors := range candidates {
			if len(donors) == 0 || e.r.Bool() {
				continue
			}
			e.draft.Set(i, rng.Pick(e.r, donors).Data)
			// A light mutation on top of a donor probes the
			// neighbourhood of known-good content.
			if e.r.Chance(8) {
				e.mutateLeaf(i)
			}
		}
		e.appendSeed()
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
		e.draft.ApplyFixups()
	}
	seed := e.draft.Render(&e.arena)
	if e.dedup[string(seed)] {
		return
	}
	e.dedup[string(seed)] = true
	e.pending = append(e.pending, seed)
}
