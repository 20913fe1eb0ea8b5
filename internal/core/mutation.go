package core

import "repro/internal/rng"

// This file implements the paper's second future-work direction (§VII):
// "customize our work into other generation- or mutation-based fuzzers".
//
// StrategyMutation is an AFL-style byte-level fuzzer over the same targets:
// a seed queue retained by coverage feedback, havoc-stage mutations, no
// knowledge of packet structure beyond the initial seeds (the data models'
// default instances, standing in for a user-supplied seed directory).
//
// StrategyMutationStar adds the paper's mechanism on top: valuable seeds
// are cracked against the data models (Algorithm 2), and a fraction of
// mutations are chunk-aware — a donor puzzle replaces one chunk of the
// cracked seed and File Fixup repairs the integrity fields — instead of
// blind byte havoc. This is the Polar-adjacent configuration the paper
// positions itself against (§VI), built from the same components.

// Mutation-based strategies (extensions beyond the paper's evaluation).
const (
	// StrategyMutation is the byte-level baseline (AFL-style havoc).
	StrategyMutation Strategy = iota + 16
	// StrategyMutationStar augments byte havoc with coverage-guided
	// packet crack and chunk-aware donation.
	StrategyMutationStar
)

// mutationQueueBound caps the byte-level seed queue.
const mutationQueueBound = 256

// mutationState is the extra engine state the mutation strategies use.
type mutationState struct {
	queue [][]byte
	// dryRun indexes the initial unmutated replay of the seed queue.
	dryRun int
}

// initMutationQueue seeds the queue with the models' default instances —
// the "user-provided initial seeds" of §II.
func (e *Engine) initMutationQueue() {
	for _, m := range e.cfg.Models {
		e.mut.queue = append(e.mut.queue, m.Generate().Bytes())
	}
}

// mutationGenerate produces one seed via byte havoc; under
// StrategyMutationStar a fraction of iterations runs the chunk-aware
// donation stage instead. The first calls replay the initial seeds
// unmutated, as AFL's dry run does — that is also what hands the cracker
// its first legal packets.
func (e *Engine) mutationGenerate() []byte {
	if len(e.mut.queue) == 0 {
		e.initMutationQueue()
	}
	if e.mut.dryRun < len(e.mut.queue) {
		seed := e.mut.queue[e.mut.dryRun]
		e.mut.dryRun++
		return append(e.arena.Buffer(len(seed)), seed...)
	}
	base := rng.Pick(e.r, e.mut.queue)
	if e.cfg.Strategy == StrategyMutationStar && !e.corp.Empty() && e.r.Chance(3) {
		if seed, ok := e.chunkAwareMutate(base); ok {
			return seed
		}
	}
	// The havoc scratch comes from the arena with headroom for inserts;
	// growth past the headroom falls back to the heap, which is merely an
	// allocation, not a bug.
	return havocInto(e.r, e.arena.Buffer(len(base)+16), base)
}

// chunkAwareMutate cracks the base seed against the model set; on success
// it donates a corpus puzzle into one donatable leaf and repairs the
// packet. ok is false when no model cracks the seed or no donor fits.
func (e *Engine) chunkAwareMutate(base []byte) ([]byte, bool) {
	for _, m := range e.cfg.Models {
		ins, err := m.Crack(base)
		if err != nil {
			continue
		}
		leaves := ins.Leaves(nil)
		rng.Shuffle(e.r, leaves)
		for _, leaf := range leaves {
			donors := e.corp.CrossModelDonors(leaf.Chunk, m.Name)
			if len(donors) == 0 {
				continue
			}
			leaf.Data = rng.Pick(e.r, donors).Data // read-only alias; fixups never write donatable leaves
			m.ApplyFixups(ins)
			return ins.AppendTo(e.arena.Buffer(ins.Len())), true
		}
		return nil, false // cracked but nothing donatable
	}
	return nil, false
}

// havocInto applies 1..8 random byte-level operations, the AFL havoc
// stage, to a copy of base built in a reusable scratch buffer (the engine
// passes arena-backed scratch so the steady-state path stays allocation
// free).
func havocInto(r *rng.RNG, dst, base []byte) []byte {
	out := append(dst[:0], base...)
	for n := r.Range(1, 8); n > 0; n-- {
		if len(out) == 0 {
			out = append(out, r.Byte())
			continue
		}
		switch r.Intn(6) {
		case 0: // bit flip
			i := r.Intn(len(out) * 8)
			out[i/8] ^= 1 << (i % 8)
		case 1: // random byte
			out[r.Intn(len(out))] = r.Byte()
		case 2: // interesting byte
			out[r.Intn(len(out))] = rng.Pick(r, []byte{0x00, 0x01, 0x7F, 0x80, 0xFF, 0x68, 0x16})
		case 3: // delete range
			if len(out) > 2 {
				i := r.Intn(len(out) - 1)
				j := r.Range(i+1, len(out))
				out = append(out[:i], out[j:]...)
			}
		case 4: // duplicate range
			if len(out) > 1 && len(out) < 512 {
				i := r.Intn(len(out) - 1)
				j := r.Range(i+1, len(out))
				seg := append([]byte(nil), out[i:j]...)
				out = append(out[:j], append(seg, out[j:]...)...)
			}
		case 5: // insert random byte
			i := r.Intn(len(out) + 1)
			out = append(out[:i], append([]byte{r.Byte()}, out[i:]...)...)
		}
	}
	return out
}

// mutationRetain adds a valuable seed to the byte-level queue, evicting the
// oldest past the bound.
func (e *Engine) mutationRetain(seed []byte) {
	cp := append([]byte(nil), seed...)
	e.mut.queue = append(e.mut.queue, cp)
	if len(e.mut.queue) > mutationQueueBound {
		e.mut.queue = e.mut.queue[1:]
	}
}

// isMutationStrategy reports whether the engine runs byte-level.
func (e *Engine) isMutationStrategy() bool {
	return e.cfg.Strategy == StrategyMutation || e.cfg.Strategy == StrategyMutationStar
}
