package core

import (
	"repro/internal/coverage"
	"repro/internal/datamodel"
	"repro/internal/mutator"
)

// This file is the adaptive scheduler (Config.Adaptive): the feedback loop
// that moves the engine's execution budget toward whatever is currently
// paying off. Three mechanisms, all off by default and all bit-for-bit
// inert when disabled:
//
//  1. Operator scheduling (MOpt/AFL++-shaped): every mutator application is
//     a trial credited to its (model, mutator) cell; when the execution it
//     fed reaches a new program state — the valuable verdict of
//     Virgin.Consume in Engine.observe, which is exactly "a never-seen edge
//     or hit-bucket" — every mutator used in that generation round is
//     credited a hit. Per-model weights are recomputed from the smoothed
//     yields every schedRecalcEvery trials and fed into Table.PickWeighted;
//     until a model has schedWarmupTrials trials its draw stays uniform,
//     and no operator ever drops below schedFloorWeight, so exploration
//     never starves.
//
//  2. Rarity-weighted seed selection: a coverage.HitCounts sidecar counts,
//     per edge, how many executions lit it; each retained valuable seed
//     carries the edge list of the trace that made it valuable, and
//     pickValuable draws seeds proportionally to the summed rarity of
//     their edges (refreshed every schedScoreEvery executions) instead of
//     the uniform depth tournament. Seeds touching edges the campaign
//     rarely reaches become the preferred mutation bases and semantic
//     skeletons.
//
//  3. Corpus distillation (afl-cmin-shaped): each cracked valuable seed is
//     tracked as a contributor — its edge set plus the corpus puzzles its
//     crack added. Every schedDistillEvery executions a greedy minimal
//     covering set over the contributors' edge sets is computed; puzzles
//     owned by contributors outside the cover are removed from the corpus,
//     shrinking the donor lists (and what journal full-replays ship) while
//     preserving the contributors' union edge set by construction.
//
// Interaction with eviction and sync (see also corpus.Remove): removal
// touches only the live store, never the acceptance journal or registered
// peer cursors, so incremental sync readers are unaffected; a removed
// entry replayed from a peer's journal is simply re-absorbed (and dedups
// on the second replay). Conversely a corpus eviction (the perSig bound)
// can race ahead of the tracker: a contributor may hold a ref to a puzzle
// eviction already removed, and its later Remove is then a harmless no-op.
//
// Determinism: the scheduler consumes engine RNG draws only inside
// PickWeighted and the weighted seed draw, both single-draw; everything
// else is pure integer/float arithmetic over deterministic counters, so an
// adaptive campaign is reproducible for a fixed seed. With Adaptive off no
// scheduler code touches the RNG and every draw site keeps its original
// call, so campaigns are bit-for-bit identical to pre-scheduler builds —
// pinned by the golden-stream and equivalence suites.

const (
	// schedWarmupTrials is the per-model trial count below which the
	// operator draw stays uniform — the MOpt pilot phase.
	schedWarmupTrials = 1024
	// schedRecalcEvery is the per-model trial count between weight
	// recomputations (weights are stable between recomputes, so the
	// per-application cost is one counter increment).
	schedRecalcEvery = 256
	// schedFloorWeight is the minimum operator weight: with span 240 the
	// coldest operator keeps ≥ 16/(16+240) ≈ 6% of the hottest's draw
	// probability, so a currently-cold operator can always come back.
	schedFloorWeight = 16
	// schedSpanWeight is the weight span scaled by relative smoothed
	// yield; the best operator of a model carries floor+span.
	schedSpanWeight = 240
	// schedYieldPrior is the smoothing prior of the yield estimate
	// (hits+1)/(trials+prior) — fresh operators read as mildly promising
	// rather than as exactly their tiny sample.
	schedYieldPrior = 32
	// schedDecayAtTrials halves a model's weighting counters once its
	// trials pass this, so weights track marginal yield, not the
	// campaign-long average (the same trick the semantic-share arm uses).
	schedDecayAtTrials = 1 << 13
	// schedScoreEvery is the execution cadence of rarity-score refreshes
	// for the valuable-seed queues.
	schedScoreEvery = 4096
	// schedDistillEvery is the execution cadence of corpus distillations.
	schedDistillEvery = 32768
	// schedMaxContributors forces a distillation when the tracked
	// contributor set outgrows it, bounding tracker memory on campaigns
	// that find valuable seeds faster than the cadence distills them.
	schedMaxContributors = 1024
	// schedMaxPendingDistills bounds the undelivered DistillInfo queue of
	// an engine nobody drains (a bare Engine.Run with no driver hook).
	schedMaxPendingDistills = 64
)

// MutatorStat is one operator's adaptive-scheduler accounting, aggregated
// over models: how many times it was applied and how many of the
// executions it fed reached a new program state. Lifetime totals —
// unlike the decayed counters that drive the live weights, these only
// grow, so deltas between snapshots are meaningful.
type MutatorStat struct {
	// Name is the operator's mutator.Mutator name.
	Name string
	// Trials is the number of applications of the operator.
	Trials uint64
	// Hits is the number of valuable executions credited to rounds that
	// used the operator.
	Hits uint64
}

// DistillInfo describes one corpus distillation: how many tracked source
// seeds the greedy cover kept, and what their pruning removed.
type DistillInfo struct {
	// Exec is the engine's execution count when the distillation ran.
	Exec int
	// SeedsKept and SeedsDropped partition the tracked contributor seeds:
	// kept seeds form the minimal covering set of the union edge set.
	SeedsKept    int
	SeedsDropped int
	// PuzzlesDropped is the number of corpus puzzles removed because
	// their source seed fell out of the cover.
	PuzzlesDropped int
	// Edges is the union edge-set size the cover preserves.
	Edges int
}

// puzzleRef identifies one corpus puzzle a contributor's crack added, by
// the removal key (rule signature + exact bytes).
type puzzleRef struct {
	sig  string
	data []byte
}

// contributor is one cracked valuable seed in the distillation tracker.
type contributor struct {
	edges   []uint16
	puzzles []puzzleRef
}

// scheduler is the engine-owned adaptive state. The zero value is the
// disabled scheduler; enable builds the counter tables.
type scheduler struct {
	on bool // the engine declaration's presence byte, not a scheduler field

	// Operator accounting, [model][mutator]. trials/hits drive the
	// weights and decay; trialsAll/hitsAll are the monotonic reporting
	// counters behind Stats.MutatorStats.
	trials, hits       [][]uint32
	trialsAll, hitsAll [][]uint64
	weights            [][]uint32 // nil per model until past warmup → uniform
	recalcIn           []uint32
	totalTrials        []uint64
	yields             []float64 // recompute scratch, rewritten by every refresh

	// curModel is the model of the generation round in flight; roundMuts
	// are the mutator indices applied while generating it — the credit
	// set if an execution of the round proves valuable.
	curModel  int
	roundMuts []int

	// Rarity sidecar and refresh countdown; traceEdges is the edge list
	// of the execution being observed, refilled by every Virgin.Consume.
	hitCounts  *coverage.HitCounts
	scoreIn    int
	traceEdges []uint16

	// Distillation tracker.
	contribs  []contributor
	distillIn int
	distills  int
	pending   []DistillInfo
}

// enableAdaptive switches the engine's adaptive scheduler on, sizing the
// accounting tables; idempotent. Must not be called while the engine is
// being driven.
func (e *Engine) enableAdaptive() {
	if e.sched.on {
		return
	}
	nm, nmut := len(e.cfg.Models), len(e.muts.Suite())
	s := &e.sched
	s.on = true
	s.trials = make([][]uint32, nm)
	s.hits = make([][]uint32, nm)
	s.trialsAll = make([][]uint64, nm)
	s.hitsAll = make([][]uint64, nm)
	s.weights = make([][]uint32, nm)
	s.recalcIn = make([]uint32, nm)
	s.totalTrials = make([]uint64, nm)
	s.yields = make([]float64, nmut)
	for i := 0; i < nm; i++ {
		s.trials[i] = make([]uint32, nmut)
		s.hits[i] = make([]uint32, nmut)
		s.trialsAll[i] = make([]uint64, nmut)
		s.hitsAll[i] = make([]uint64, nmut)
		s.recalcIn[i] = schedRecalcEvery
	}
	s.curModel = -1
	s.hitCounts = coverage.NewHitCounts()
	s.scoreIn = schedScoreEvery
	s.distillIn = schedDistillEvery
}

// beginRound opens a generation round for model mi (-1 for rounds with no
// model, e.g. the byte-level mutation strategies): the round's mutator
// credit set starts empty.
func (s *scheduler) beginRound(mi int) {
	s.curModel = mi
	s.roundMuts = s.roundMuts[:0]
}

// recordTrial credits one application of mutator mut to the round's model
// and adds it to the round's credit set, recomputing the model's weights
// when the recompute countdown expires.
func (s *scheduler) recordTrial(mut int) {
	mi := s.curModel
	if mi < 0 {
		return
	}
	s.trials[mi][mut]++
	s.trialsAll[mi][mut]++
	s.totalTrials[mi]++
	s.roundMuts = append(s.roundMuts, mut)
	if s.recalcIn[mi] > 0 {
		s.recalcIn[mi]--
		return
	}
	s.recalcIn[mi] = schedRecalcEvery
	s.recompute(mi)
}

// recompute rebuilds model mi's operator weights from the smoothed yields:
// weight_i = floor + span · yield_i/max(yield), after halving the counters
// when the decay threshold is passed. During warmup the weights stay nil,
// which PickWeighted reads as a uniform draw.
func (s *scheduler) recompute(mi int) {
	if s.totalTrials[mi] < schedWarmupTrials {
		return
	}
	if s.totalTrials[mi] >= schedDecayAtTrials {
		var tot uint64
		for i := range s.trials[mi] {
			s.trials[mi][i] /= 2
			s.hits[mi][i] /= 2
			tot += uint64(s.trials[mi][i])
		}
		s.totalTrials[mi] = tot
	}
	maxY := 0.0
	for i := range s.yields {
		y := (float64(s.hits[mi][i]) + 1) / (float64(s.trials[mi][i]) + schedYieldPrior)
		s.yields[i] = y
		if y > maxY {
			maxY = y
		}
	}
	w := s.weights[mi]
	if w == nil {
		w = make([]uint32, len(s.yields))
		s.weights[mi] = w
	}
	for i, y := range s.yields {
		w[i] = schedFloorWeight + uint32(schedSpanWeight*y/maxY+0.5)
	}
}

// modelWeights returns the operator weights of the round's model (nil
// during warmup or for model-less rounds — the uniform draw).
func (s *scheduler) modelWeights() []uint32 {
	if s.curModel < 0 {
		return nil
	}
	return s.weights[s.curModel]
}

// observeExec is the scheduler's per-execution feedback step, called at
// the valuable decision point of Engine.observe, whose Virgin.Consume has
// already counted the execution's footprint into the rarity counters:
// credit the round's operators when the execution proved valuable, and
// run the periodic refresh and distillation countdowns.
func (e *Engine) observeExec(valuable bool) {
	s := &e.sched
	if valuable && s.curModel >= 0 {
		for _, mut := range s.roundMuts {
			s.hits[s.curModel][mut]++
			s.hitsAll[s.curModel][mut]++
		}
	}
	s.scoreIn--
	if s.scoreIn <= 0 {
		s.scoreIn = schedScoreEvery
		e.refreshScores()
	}
	s.distillIn--
	if s.distillIn <= 0 || len(s.contribs) >= schedMaxContributors {
		s.distillIn = schedDistillEvery
		e.distillCorpus()
	}
}

// refreshScores recomputes every retained valuable seed's rarity score
// from the current hit counters. Between refreshes the cached scores
// drift — acceptable: rarity orders change slowly, and the refresh keeps
// the per-pick cost at one cumulative scan of a ≤32-entry queue.
func (e *Engine) refreshScores() {
	for _, q := range e.valuable {
		for i := range q {
			if len(q[i].edges) == 0 {
				// A seed retained before the sidecar existed (scheduler
				// enabled mid-campaign): keep it drawable, minimally.
				q[i].score = 1
				continue
			}
			q[i].score = e.sched.hitCounts.RarityScore(q[i].edges)
		}
	}
}

// pickValuableRare draws a retained seed proportionally to its cached
// rarity score, consuming exactly one RNG value. It returns nil when no
// scores have been computed yet (before the first refresh), and the
// caller falls back to the uniform depth tournament.
func (e *Engine) pickValuableRare(q []valuableSeed) *datamodel.Flat {
	var total uint64
	for i := range q {
		total += q[i].score
	}
	if total == 0 {
		return nil
	}
	k := e.r.Uint64() % total
	for i := range q {
		if k < q[i].score {
			return q[i].ins
		}
		k -= q[i].score
	}
	return q[len(q)-1].ins // unreachable: k < total
}

// trackContributor registers one cracked valuable seed with the
// distillation tracker: the edge set of the trace that made it valuable
// plus the refs of the puzzles its crack added. Seeds whose crack added
// nothing (every puzzle deduplicated) own nothing the distiller could
// prune, so they are not tracked.
func (s *scheduler) trackContributor(edges []uint16, puzzles []puzzleRef) {
	if len(puzzles) == 0 {
		return
	}
	s.contribs = append(s.contribs, contributor{edges: edges, puzzles: puzzles})
}

// distillCorpus runs one greedy minimal-cover distillation (the afl-cmin
// shape): scan contributors repeatedly, each pass selecting the one
// covering the most still-uncovered edges (earliest index on ties, so the
// cover is deterministic), until every edge of the contributors' union is
// covered; then remove the puzzles owned by the unselected contributors
// from the corpus and drop those contributors from the tracker.
func (e *Engine) distillCorpus() {
	s := &e.sched
	if len(s.contribs) == 0 {
		return
	}
	covered := make([]bool, coverage.MapSize)
	selected := make([]bool, len(s.contribs))
	unionEdges := 0
	for {
		best, bestGain := -1, 0
		for i := range s.contribs {
			if selected[i] {
				continue
			}
			gain := 0
			for _, edge := range s.contribs[i].edges {
				if !covered[edge] {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = i, gain
			}
		}
		if best < 0 {
			break // every remaining contributor adds nothing
		}
		selected[best] = true
		for _, edge := range s.contribs[best].edges {
			if !covered[edge] {
				covered[edge] = true
				unionEdges++
			}
		}
	}
	dropped := 0
	kept := s.contribs[:0]
	for i := range s.contribs {
		if selected[i] {
			kept = append(kept, s.contribs[i])
			continue
		}
		for _, ref := range s.contribs[i].puzzles {
			if e.corp.Remove(ref.sig, ref.data) {
				dropped++
			}
		}
	}
	info := DistillInfo{
		Exec:           e.stats.Execs,
		SeedsKept:      len(kept),
		SeedsDropped:   len(s.contribs) - len(kept),
		PuzzlesDropped: dropped,
		Edges:          unionEdges,
	}
	// Zero the dropped tail so pruned contributors' edge lists and puzzle
	// refs are collectable.
	for i := len(kept); i < len(s.contribs); i++ {
		s.contribs[i] = contributor{}
	}
	s.contribs = kept
	s.distills++
	s.pending = append(s.pending, info)
	if len(s.pending) > schedMaxPendingDistills {
		s.pending = s.pending[len(s.pending)-schedMaxPendingDistills:]
	}
}

// takeDistills returns and clears the distillations run since the last
// call — the driver drains it at merge-window boundaries on the worker's
// own goroutine and turns the entries into DistillEvents.
func (e *Engine) takeDistills() []DistillInfo {
	if len(e.sched.pending) == 0 {
		return nil
	}
	out := e.sched.pending
	e.sched.pending = nil
	return out
}

// mutatorStats appends the lifetime operator accounting, aggregated over
// models, to out.
func (e *Engine) mutatorStats(out []MutatorStat) []MutatorStat {
	for i, m := range e.muts.Suite() {
		st := MutatorStat{Name: m.Name()}
		for mi := range e.sched.trialsAll {
			st.Trials += e.sched.trialsAll[mi][i]
			st.Hits += e.sched.hitsAll[mi][i]
		}
		out = append(out, st)
	}
	return out
}

// pickMutator is the engine's single mutator draw site: the weighted
// adaptive draw with trial credit when the scheduler is on, the original
// uniform Pick — same mutator, same single RNG draw — when off. Both read
// the suite's per-kind table.
func (e *Engine) pickMutator(c *datamodel.Chunk) mutator.Mutator {
	if !e.sched.on {
		return e.muts.Pick(e.r, c)
	}
	mut, idx := e.muts.PickWeighted(e.r, c, e.sched.modelWeights())
	if mut != nil {
		e.sched.recordTrial(idx)
	}
	return mut
}
