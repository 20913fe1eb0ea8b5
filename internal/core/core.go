// Package core implements the Peach* fuzzing engine (paper §IV): the
// generation-based fuzzing loop of Algorithm 1, the coverage feedback that
// identifies valuable seeds (§IV-B), the file cracker that splits valuable
// seeds into puzzles (Algorithm 2), and the semantic-aware generation
// strategy with file fixup that reassembles puzzles into new packets
// (Algorithm 3, §IV-D).
//
// The same Engine runs both the baseline (plain Peach, Algorithm 1) and the
// full Peach* strategy, selected by Config.Strategy, which is what the
// paper's evaluation compares.
package core

import (
	"fmt"

	"repro/internal/corpus"
	"repro/internal/coverage"
	"repro/internal/crash"
	"repro/internal/datamodel"
	"repro/internal/executor"
	"repro/internal/mutator"
	"repro/internal/rng"
	"repro/internal/sandbox"
	"repro/internal/session"
)

// Strategy selects the generation strategy.
type Strategy int

// Strategies compared in the paper's evaluation.
const (
	// StrategyPeach is the baseline: Algorithm 1 with Peach's inherent
	// mutator-driven generation and no feedback loop.
	StrategyPeach Strategy = iota
	// StrategyPeachStar augments the baseline with coverage feedback,
	// packet cracking, and semantic-aware generation (the paper's
	// contribution).
	StrategyPeachStar
)

// String names the strategy as in the paper.
func (s Strategy) String() string {
	switch s {
	case StrategyPeach:
		return "Peach"
	case StrategyPeachStar:
		return "Peach*"
	case StrategyMutation:
		return "MutFuzz"
	case StrategyMutationStar:
		return "MutFuzz*"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Config parameterizes an Engine.
type Config struct {
	// Models is the data-model set extracted from the format
	// specification (EXTRACTDATAMODEL of Algorithms 1 and 2).
	Models []*datamodel.Model
	// Target is the instrumented protocol program under test.
	Target sandbox.Target
	// Executor, when non-nil, overrides the execution backend: the engine
	// runs every generated seed through it instead of building an
	// in-process sandbox over Target. The engine borrows the executor (the
	// caller that built it closes it) and reads coverage from its Tracer.
	// When nil — the default every existing campaign uses — the engine
	// wraps Target in the in-process backend, which is bit-for-bit
	// identical to the pre-interface sandbox path.
	Executor executor.Executor
	// Strategy selects Peach or Peach*.
	Strategy Strategy
	// Seed drives all randomness; equal seeds give equal campaigns.
	Seed uint64

	// Session, when non-nil, switches the engine into stateful-session
	// fuzzing (see session.go): every iteration walks the state machine
	// and drives a message sequence down one target session instead of
	// sending one packet. Every Action.Model must name a model in Models.
	// When nil — the default — no session code runs and the engine is
	// bit-for-bit identical to the single-packet build.
	Session *session.StateModel

	// MaxBatch caps the number of seeds Algorithm 3 materializes per
	// iteration from the donor cartesian product (the paper enumerates
	// p*q combinations; unbounded enumeration explodes). 0 = default.
	MaxBatch int
	// CorpusPerSig bounds stored puzzles per rule signature. 0 = default.
	CorpusPerSig int

	// Adaptive enables the adaptive scheduler (see sched.go): learned
	// per-model mutator weights, rarity-weighted seed selection, and
	// periodic corpus distillation. Off by default; when off the engine
	// is bit-for-bit identical to a build without the scheduler.
	Adaptive bool

	// Ablation switches (all false in the faithful configuration).
	//
	// DisableFixup skips the File Fixup pass on semantically generated
	// seeds, so donated chunks leave sizes/checksums stale (§IV-D argues
	// this loses validity).
	DisableFixup bool
	// DisableCracker never cracks valuable seeds, leaving the corpus
	// empty; Peach* then degenerates to the baseline plus feedback
	// bookkeeping.
	DisableCracker bool
	// DisableCrossModel restricts donors to puzzles cracked from the
	// same data model, suppressing the cross-opcode donation of §IV-D.
	DisableCrossModel bool
}

// DefaultMaxBatch is the default cap on seeds materialized per semantic
// generation round.
const DefaultMaxBatch = 64

// Stats is a snapshot of campaign progress.
type Stats struct {
	// Iterations of the outer fuzzing loop.
	Iterations int
	// Execs is the number of target executions (Peach* may execute
	// several generated seeds per iteration).
	Execs int
	// Paths is the number of valuable seeds retained — the "paths
	// covered" metric of Fig. 4.
	Paths int
	// SemanticExecs and SemanticPaths break out the share of executions
	// and valuable seeds contributed by semantic-aware generation
	// (always 0 for the baseline).
	SemanticExecs int
	SemanticPaths int
	// Edges is the number of distinct coverage-map edges seen.
	Edges int
	// UniqueCrashes and Hangs summarize the crash bank.
	UniqueCrashes int
	Hangs         int
	// CorpusPuzzles is the current puzzle count (0 for baseline).
	CorpusPuzzles int
	// TargetRestarts is how many times the execution backend respawned a
	// supervised target process (crash recoveries, watchdog kills,
	// preventive journal restarts); always 0 for in-process campaigns.
	TargetRestarts int
	// Distills is the number of corpus distillations run; 0 unless the
	// adaptive scheduler is on.
	Distills int
	// MutatorStats is the adaptive scheduler's per-operator accounting,
	// in mutator-suite order; nil unless the adaptive scheduler is on.
	MutatorStats []MutatorStat
	// Sequences is the number of message sequences driven; 0 unless
	// session fuzzing is on (Config.Session).
	Sequences int
	// StatesReached is how many state-machine states the campaign has
	// sent a message from; 0 unless session fuzzing is on.
	StatesReached int
	// StateCoverage is the per-state session accounting, in StateModel
	// order; nil unless session fuzzing is on.
	StateCoverage []StateCoverage
	// SeqOpStats is the sequence-operator accounting (trials and valuable
	// hits per operator); nil unless session fuzzing is on.
	SeqOpStats []MutatorStat
}

// Engine is one fuzzing campaign.
type Engine struct {
	cfg  Config //peachstar:nosnap construction-time config; a restored campaign keeps its own
	r    *rng.RNG
	exec executor.Executor
	//peachstar:nosnap backend health is runtime state, not campaign state; restore clears it
	execErr error // first unrecoverable backend failure; sticky
	// restartsAccum carries the target-restart counts of previous
	// executors across SwapExecutor boundaries, so a campaign's
	// TargetRestarts survives the session restoring the in-process
	// backend.
	restartsAccum int
	virgin        *coverage.Virgin
	corp          *corpus.Corpus
	crashes       *crash.Bank
	muts          []mutator.Mutator //peachstar:nosnap mutator suite is construction wiring
	stats         Stats
	// pending holds seeds generated but not yet executed (Algorithm 3
	// produces batches); pendingSemantic records their provenance.
	pending         [][]byte //peachstar:nosnap in-flight batch is discarded at a checkpoint; restore resets it
	pendingSemantic bool     //peachstar:nosnap provenance of the discarded in-flight batch
	// Hot-path scratch state, reset once per generation round: the arena
	// backs every transient instance and rendered seed; work is the
	// round's working instance (a flat copy of the skeleton); cands and
	// saved are reused slices for the per-iteration loops; dedup is the
	// per-batch duplicate filter. Everything that outlives an iteration
	// (corpus, crash bank, valuable queue) copies out.
	arena datamodel.Arena   //peachstar:nosnap per-round scratch slab, reset at round start
	work  datamodel.Flat    //peachstar:nosnap per-round working instance
	cands [][]corpus.Puzzle //peachstar:nosnap per-iteration walk scratch
	saved [][]byte          //peachstar:nosnap per-iteration walk scratch
	dedup map[string]bool   //peachstar:nosnap per-batch filter; restore resets it
	// valuable holds the retained coverage-increasing instances per
	// model — the feedback-selected bases for "mutation on existing
	// chunks" (§II). Bounded per model; older entries are evicted.
	valuable map[string][]valuableSeed
	// Yield accounting for the adaptive semantic share: execs and
	// valuable seeds per strategy arm.
	semExecs, semPaths   int
	baseExecs, basePaths int
	// donorScr holds per-position donor scratch for semantic generation,
	// reused across rounds so CrossModelDonorsInto filtering stays
	// alloc-free on the hot path.
	donorScr [][]corpus.Puzzle //peachstar:nosnap reusable donor scratch, regrown on demand
	// mut is the byte-level state of the mutation strategies (§VII
	// future-work extension).
	mut mutationState
	// sched is the adaptive scheduler state (zero value = disabled).
	sched scheduler
	// sess is the stateful-session fuzzing state (nil = single-packet).
	sess *sessionCore
}

// New validates the configuration and builds an engine.
func New(cfg Config) (*Engine, error) {
	if len(cfg.Models) == 0 {
		return nil, fmt.Errorf("core: no data models")
	}
	if cfg.Target == nil && cfg.Executor == nil {
		return nil, fmt.Errorf("core: no target")
	}
	for _, m := range cfg.Models {
		if err := m.Validate(); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	ex := cfg.Executor
	if ex == nil {
		ex = executor.NewInProc(cfg.Target)
	}
	e := &Engine{
		cfg:      cfg,
		r:        rng.New(cfg.Seed),
		exec:     ex,
		virgin:   coverage.NewVirgin(),
		corp:     corpus.New(cfg.CorpusPerSig),
		crashes:  crash.NewBank(),
		muts:     mutator.Suite(),
		valuable: make(map[string][]valuableSeed),
		dedup:    make(map[string]bool),
	}
	if cfg.Adaptive {
		e.enableAdaptive()
	}
	if cfg.Session != nil {
		sc, err := newSessionCore(cfg.Session, cfg.Models)
		if err != nil {
			return nil, err
		}
		e.sess = sc
	}
	return e, nil
}

// Stats returns the current campaign snapshot.
func (e *Engine) Stats() Stats {
	s := e.stats
	s.Edges = e.virgin.Edges()
	s.UniqueCrashes = e.crashes.Unique()
	s.Hangs = e.crashes.Hangs()
	s.CorpusPuzzles = e.corp.Len()
	if e.sched.on {
		s.Distills = e.sched.distills
		s.MutatorStats = e.mutatorStats()
	}
	if e.sess != nil {
		s.StatesReached = e.sess.reachedN
		s.StateCoverage = e.sess.stateCoverage()
		s.SeqOpStats = e.sess.seqOpStats()
	}
	s.TargetRestarts = e.execRestarts()
	return s
}

// execRestarts is the campaign-lifetime target-restart count: restarts
// accumulated from swapped-out backends plus the live backend's own.
func (e *Engine) execRestarts() int {
	n := e.restartsAccum
	if rp, ok := e.exec.(interface{ Restarts() int }); ok {
		n += rp.Restarts()
	}
	return n
}

// Crashes exposes the crash bank for reporting.
func (e *Engine) Crashes() *crash.Bank { return e.crashes }

// Executor exposes the engine's execution backend.
func (e *Engine) Executor() executor.Executor { return e.exec }

// SwapExecutor replaces the engine's execution backend, returning the
// previous one. The caller owns both lifecycles; swapping mid-campaign is
// the session layer's mechanism for attaching a real-target backend to an
// engine built with the default in-process one. A sticky backend error is
// cleared: it described the outgoing backend, and the campaign must be
// able to continue on the new one.
func (e *Engine) SwapExecutor(x executor.Executor) executor.Executor {
	prev := e.exec
	if rp, ok := prev.(interface{ Restarts() int }); ok {
		e.restartsAccum += rp.Restarts()
	}
	e.exec = x
	e.execErr = nil
	return prev
}

// ExecError returns the first unrecoverable execution-backend failure, or
// nil. Once set, further Steps stop executing: the backend is gone (spawn
// retries exhausted, target binary missing) and the campaign cannot make
// progress.
func (e *Engine) ExecError() error { return e.execErr }

// Corpus exposes the puzzle corpus for reporting and examples.
func (e *Engine) Corpus() *corpus.Corpus { return e.corp }

// Step runs one iteration of the outer loop (Algorithm 1 lines 3-12):
// generate seed(s) under the configured strategy, execute them, process
// feedback. It returns the number of executions performed.
//
//peachstar:hotpath
func (e *Engine) Step() int {
	if e.sess != nil {
		return e.stepSession()
	}
	e.stats.Iterations++
	if len(e.pending) == 0 {
		e.generate()
	}
	execs := 0
	// Execute the whole pending batch this step; each seed is one
	// RUNTARGET of Algorithm 1.
	for _, seed := range e.pending {
		e.execute(seed)
		execs++
	}
	e.pending = e.pending[:0]
	return execs
}

// Run executes steps until at least execBudget target executions have been
// performed, or the execution backend fails unrecoverably (ExecError).
func (e *Engine) Run(execBudget int) {
	for e.stats.Execs < execBudget && e.execErr == nil {
		e.Step()
	}
}

// generate refills the pending batch under the configured strategy.
//
// Peach* applies the semantic-aware strategy "in the following iteration of
// seed generation" once the corpus is available (§IV-A), but the inherent
// strategy keeps running too — without it, exploration would stop producing
// the novel chunk material the corpus feeds on. The share of iterations
// given to semantic generation adapts to its measured yield (valuable
// seeds per execution) relative to the inherent strategy, so recombination
// gets budget exactly where cross-model donation is paying off.
func (e *Engine) generate() {
	// The previous batch is fully executed and everything retained from it
	// has been copied out, so the arena's trees and seed buffers are dead:
	// recycle them for this round.
	e.arena.Reset()
	if e.isMutationStrategy() {
		if e.sched.on {
			e.sched.beginRound(-1) // byte-level rounds carry no operator credit
		}
		e.pendingSemantic = false
		e.pending = append(e.pending, e.mutationGenerate())
		return
	}
	// CHOOSE(S_M) — by index so the scheduler can attribute the round;
	// consumes the identical RNG draw rng.Pick would (one Intn).
	mi := e.r.Intn(len(e.cfg.Models))
	m := e.cfg.Models[mi]
	if e.sched.on {
		e.sched.beginRound(mi)
	}
	e.pendingSemantic = false
	if e.cfg.Strategy == StrategyPeachStar && !e.corp.Empty() && e.semanticTurn() {
		e.semanticGenerate(m) // fills e.pending
		if len(e.pending) > 0 {
			e.pendingSemantic = true
			return
		}
	}
	// Baseline generation (Algorithm 1): one seed from the model's
	// chunks via the inherent mutators.
	e.pending = append(e.pending, e.baselineGenerate(m))
}

// semanticTurn decides whether this iteration uses semantic generation, by
// steering the semantic arm's share of *executions* (batches are several
// seeds, so iteration-level coin flips would overshoot). The target share
// is the smoothed relative yield (valuable seeds per execution) of the two
// arms, clamped to [3%, 50%]: recombination is never starved — its donor
// corpus keeps improving — and batch replay never crowds out exploration.
func (e *Engine) semanticTurn() bool {
	// The baseline arm carries an optimism bonus; the semantic arm does
	// not: with no recent semantic yield the share must fall to the
	// floor rather than drift back to the smoothing prior.
	semYield := float64(e.semPaths) / (float64(e.semExecs) + 256)
	baseYield := (float64(e.basePaths) + 1) / (float64(e.baseExecs) + 256)
	share := semYield / (semYield + baseYield)
	if share < 0.03 {
		share = 0.03
	}
	if share > 0.5 {
		share = 0.5
	}
	total := float64(e.semExecs+e.baseExecs) + 1
	return float64(e.semExecs) < share*total
}

// execute runs one seed and processes coverage and crash feedback.
func (e *Engine) execute(seed []byte) {
	if e.execErr != nil {
		return
	}
	e.stats.Execs++
	if e.pendingSemantic {
		e.semExecs++
		e.stats.SemanticExecs++
	} else {
		e.baseExecs++
	}
	// Decay the yield window periodically so the semantic share tracks
	// *marginal* productivity, not the campaign-long average — late in a
	// campaign both arms' historical yields converge even when one has
	// stopped paying.
	if (e.semExecs+e.baseExecs)%1024 == 0 {
		e.semExecs = e.semExecs * 3 / 4
		e.semPaths = e.semPaths * 3 / 4
		e.baseExecs = e.baseExecs * 3 / 4
		e.basePaths = e.basePaths * 3 / 4
	}
	res, err := e.exec.Run(seed)
	if err != nil {
		// Unrecoverable backend failure. The exec was already counted, so
		// budget-driven loops still terminate; the sticky error makes the
		// drivers stop early and surfaces in the campaign result.
		if e.execErr == nil {
			e.execErr = err
		}
		return
	}
	if e.observe(seed, &res) {
		if e.pendingSemantic {
			e.semPaths++
			e.stats.SemanticPaths++
		} else {
			e.basePaths++
		}
		if e.isMutationStrategy() {
			e.mutationRetain(seed)
		}
	}
}

// observe is the feedback half of Algorithm 1 for one finished execution —
// the single step both the packet loop (execute) and the session loop
// (executeSequence) go through: bank a crash or hang, decide whether the
// seed is valuable, credit the scheduler, and crack a valuable seed into
// the corpus. It reports whether the seed was valuable so the caller can do
// its mode-specific retention.
//
//peachstar:hotpath
func (e *Engine) observe(seed []byte, res *sandbox.Result) bool {
	switch res.Outcome {
	case sandbox.Crash:
		e.crashes.Report(res.Fault, seed, res.Repro, res.ReproStarts, e.stats.Execs, e.exec.Tracer().PathHash())
	case sandbox.Hang:
		e.crashes.ReportHang(res.HangSteps, seed)
	}
	// Valuable-seed identification (§IV-B): did this execution reach a
	// new program state? The merge walks only the tracer lines this
	// execution dirtied. This decision is also the scheduler's credit
	// assignment point: MergeTracer returning true is exactly "new edge
	// or new hit bucket", the hit signal for the round's operators.
	valuable := e.virgin.MergeTracer(e.exec.Tracer())
	if e.sched.on {
		e.observeExec(valuable)
	}
	if !valuable {
		return false
	}
	e.stats.Paths++
	star := e.cfg.Strategy == StrategyPeachStar || e.cfg.Strategy == StrategyMutationStar
	if star && !e.cfg.DisableCracker {
		e.crackValuable(seed, e.exec.Tracer().CountEdges())
	}
	return true
}
