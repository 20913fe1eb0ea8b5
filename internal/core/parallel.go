package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/corpus"
	"repro/internal/coverage"
	"repro/internal/crash"
	"repro/internal/executor"
	"repro/internal/rng"
	"repro/internal/sandbox"
)

// This file implements the sharded campaign runner: one fuzzing campaign
// split across N worker engines. Each worker owns the full serial machinery
// — its own RNG stream (split from the campaign seed), its own target
// instance and sandbox, its own coverage accumulator, puzzle corpus and
// crash bank — and runs the unmodified serial loop. Workers meet only at
// coarse-grained sync points: every MergeEvery executions a worker publishes
// its coverage and puzzles into the shared campaign state and folds the
// other workers' discoveries back out, all under one mutex. Between syncs
// there is no shared mutable state at all, so the hot loop is exactly the
// serial hot loop.

// DefaultMergeEvery is the default number of per-worker executions between
// synchronizations with the shared campaign state. Small enough that
// cross-worker donation (a puzzle cracked on worker A donated by worker B)
// happens many times per campaign, large enough that the mutex is cold.
const DefaultMergeEvery = 256

// ParallelConfig parameterizes a Fleet beyond the per-engine Config.
type ParallelConfig struct {
	// Workers is the number of worker engines; 0 and 1 both mean serial.
	Workers int
	// NewTarget constructs a fresh target instance for each worker beyond
	// the first (which uses Config.Target). Required when Workers > 1:
	// targets are stateful servers and must not be shared across
	// goroutines.
	NewTarget func() sandbox.Target
	// MergeEvery is the per-worker execution count between shared-state
	// syncs (0 = DefaultMergeEvery).
	MergeEvery int
	// SeedStream offsets the RNG stream indices the workers draw: worker i
	// fuzzes with rng.Split(Config.Seed, SeedStream+i). Zero for a local
	// fleet; distributed leaves sharing one campaign seed use disjoint
	// offsets so no two hosts fuzz the same stream.
	SeedStream int
}

// Fleet is one fuzzing campaign sharded across parallel worker engines. A
// single-worker Fleet is bit-for-bit identical to the serial Engine with the
// same Config: worker 0 keeps the campaign seed (rng.Split stream 0) and the
// single-worker Drive performs no sync operations.
//
// Drive blocks until the budget is spent; Stats, Crashes and Corpus must
// not be called concurrently with it.
type Fleet struct {
	workers []*Engine
	peers   []*workerPeer
	merge   int
	// state is the shared campaign state. Workers touch it only at sync
	// points; everything else they own privately. A network transport
	// attaches to the same state (see State), which is how remote
	// discoveries reach the workers: they arrive in the shared state and
	// the workers' next pull folds them out.
	state *SyncState
	// pubEdges and pubCorpus are the fleet-level published union figures,
	// refreshed at every merge window (see driver.go); with the workers'
	// published counters they are what StatsApprox reads while a Drive is
	// in flight.
	pubEdges  int64
	pubCorpus int64
	// adaptive is 1 when the workers run the adaptive scheduler; atomic so
	// StatsApprox can gate on it from any goroutine after a mid-campaign
	// EnableAdaptive.
	adaptive int32
}

// workerPeer adapts one worker engine to the SyncPeer merge path. It holds
// the worker's journal cursors: how much of the worker's corpus journal has
// been pushed into the shared corpus, and how much of the shared journal
// has been pulled back out. Deltas make a sync window O(puzzles found since
// the last window), not O(corpus).
type workerPeer struct {
	w      *Engine
	pushed int // cursor into the worker's own journal
	pulled int // cursor into the shared corpus's journal
	// selfID registers the fleet as the consumer of the worker's journal,
	// sharedID registers the worker as a consumer of the shared journal;
	// both feed journal compaction.
	selfID   int
	sharedID int
	// execsPub is the worker's execution count as of its latest sync
	// window, published atomically so concurrent observers (a fleetnet
	// node building acks on handler goroutines) can read fleet progress
	// without touching the workers' live counters. See Fleet.ExecsApprox.
	execsPub int64
	// The remaining published counters feed Fleet.StatsApprox the same
	// way: stored by the worker at each window boundary, loaded by any
	// goroutine.
	pathsPub    int64
	itersPub    int64
	semExecsPub int64
	semPathsPub int64
	restartsPub int64
	// crashesSeen is the driver's per-worker crash watermark: how many of
	// this worker's unique records previous windows already reported
	// through the WindowHook. Touched only by the worker's own goroutine.
	crashesSeen int
	// mutTrialsPub/mutHitsPub/distillsPub publish the worker's adaptive
	// scheduler accounting (suite-indexed lifetime trials and hits, and
	// the distillation count) the same way as the counters above. The
	// slices are always allocated so a mid-campaign EnableAdaptive needs
	// no resizing; they stay zero when the scheduler is off.
	mutTrialsPub []int64
	mutHitsPub   []int64
	distillsPub  int64
	// seqsPub/statesPub publish the worker's session-fuzzing counters
	// (sequences driven, states reached); zero when sessions are off.
	seqsPub   int64
	statesPub int64
}

// Exchange is the local half of the merge protocol (invoked under the
// shared-state lock): publish this worker's coverage and puzzles, then fold
// the shared state back into the worker. The pull half is what makes
// sharding more than N independent campaigns — a worker stops re-counting
// paths the fleet has already found and gains donor material cracked by its
// peers (local or, through the network transport, remote). After each
// window the consumed journal prefixes are compacted away on both sides.
func (p *workerPeer) Exchange(virgin *coverage.Virgin, corp *corpus.Corpus, crashes *crash.Bank) error {
	w := p.w
	atomic.StoreInt64(&p.execsPub, int64(w.stats.Execs))
	virgin.MergeVirgin(w.virgin)
	w.virgin.MergeVirgin(virgin)
	_, p.pushed = corp.MergeJournal(w.corp, p.pushed)
	w.corp.AdvancePeer(p.selfID, p.pushed)
	w.corp.CompactJournal()
	_, p.pulled = w.corp.MergeJournal(corp, p.pulled)
	corp.AdvancePeer(p.sharedID, p.pulled)
	corp.CompactJournal()
	// Publish the worker's unique faults so a network hub can relay them;
	// Absorb is an idempotent max-count merge, so republishing every
	// window never inflates counts. Unique faults are rare, so the
	// snapshot cost is negligible against a merge window.
	if w.crashes.Unique() > 0 {
		for _, r := range w.crashes.Records() {
			crashes.Absorb(r)
		}
	}
	return nil
}

// NewFleet validates the configuration and builds the worker engines.
// Worker i fuzzes with seed rng.Split(cfg.Seed, SeedStream+i); models are
// shared across workers (chunks are immutable once built), targets are not.
func NewFleet(cfg Config, pcfg ParallelConfig) (*Fleet, error) {
	workers := pcfg.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > 1 && pcfg.NewTarget == nil {
		return nil, fmt.Errorf("core: ParallelConfig.NewTarget is required for %d workers", workers)
	}
	merge := pcfg.MergeEvery
	if merge <= 0 {
		merge = DefaultMergeEvery
	}
	f := &Fleet{
		merge: merge,
		state: NewSyncState(cfg.CorpusPerSig),
	}
	for i := 0; i < workers; i++ {
		wcfg := cfg
		wcfg.Seed = rng.Split(cfg.Seed, pcfg.SeedStream+i)
		if i > 0 {
			wcfg.Target = pcfg.NewTarget()
		}
		eng, err := New(wcfg)
		if err != nil {
			return nil, err
		}
		f.workers = append(f.workers, eng)
		f.peers = append(f.peers, &workerPeer{
			w:            eng,
			selfID:       eng.corp.RegisterPeer(0),
			sharedID:     f.state.corp.RegisterPeer(0),
			mutTrialsPub: make([]int64, len(eng.muts)),
			mutHitsPub:   make([]int64, len(eng.muts)),
		})
	}
	if cfg.Adaptive {
		atomic.StoreInt32(&f.adaptive, 1)
	}
	return f, nil
}

// EnableAdaptive switches every worker's adaptive scheduler on (see
// sched.go); idempotent, and a no-op for campaigns built with
// Config.Adaptive. Must not be called while a Drive is in flight. Enabling
// mid-campaign is permanent: seeds retained before the switch carry no
// edge lists and are scored minimally until re-discovered.
func (f *Fleet) EnableAdaptive() {
	for _, w := range f.workers {
		w.enableAdaptive()
	}
	atomic.StoreInt32(&f.adaptive, 1)
}

// Adaptive reports whether the fleet's workers run the adaptive scheduler.
// Safe to call from any goroutine.
func (f *Fleet) Adaptive() bool { return atomic.LoadInt32(&f.adaptive) == 1 }

// State exposes the fleet's shared campaign state, the attachment point for
// the network transport: a fleetnet hub serves it to remote leaves, a
// fleetnet leaf exchanges it with its hub. Anything merged into the state
// reaches the workers at their next sync window.
func (f *Fleet) State() *SyncState { return f.state }

// SyncAll runs one merge window for every worker, serialized against any
// concurrent peers of the shared state. Network leaves call it to flush
// worker discoveries into the shared state before an uplink exchange (and
// to fold freshly arrived remote state back out): a single-worker Drive
// never syncs on its own, preserving its bit-for-bit equivalence with the
// serial engine, so the flush must be explicit. Must not be called while
// a Drive is in flight.
func (f *Fleet) SyncAll() {
	for _, p := range f.peers {
		f.state.Exchange(p)
	}
}

// Workers returns the fleet's parallelism.
func (f *Fleet) Workers() int { return len(f.workers) }

// SwapExecutor replaces the lone worker's execution backend, returning the
// previous one — how the session layer attaches a real-target backend to a
// campaign. A supervised process serves one connection-driving worker, so
// multi-worker fleets are refused; run several processes under several
// campaigns instead. Must not be called while a Drive is in flight.
func (f *Fleet) SwapExecutor(x executor.Executor) (executor.Executor, error) {
	if len(f.workers) != 1 {
		return nil, fmt.Errorf("core: a process-backed campaign needs exactly 1 worker, fleet has %d", len(f.workers))
	}
	return f.workers[0].SwapExecutor(x), nil
}

// ExecError returns the first unrecoverable execution-backend failure any
// worker hit, or nil. A failed backend stops its worker's loop early; the
// campaign result carries this error.
func (f *Fleet) ExecError() error {
	for _, w := range f.workers {
		if w.execErr != nil {
			return w.execErr
		}
	}
	return nil
}

// Execs returns the total executions performed so far — the budget
// arithmetic accessor. Unlike Stats it merges nothing, so driving loops can
// call it every slice without touching the shared state. Like Stats it must
// not race with Drive; concurrent observers use ExecsApprox.
func (f *Fleet) Execs() int {
	total := 0
	for _, w := range f.workers {
		total += w.stats.Execs
	}
	return total
}

// ExecsApprox returns the fleet's total executions as of each worker's
// latest merge window. Unlike Execs it is safe to call from any goroutine
// while a Drive is in flight — a fleetnet hub or mesh node reports local
// progress to remote peers from connection-handler goroutines through it.
// The figure lags the live counters by at most one merge window and is
// exact whenever the fleet is idle.
func (f *Fleet) ExecsApprox() int {
	total := 0
	for _, p := range f.peers {
		total += int(atomic.LoadInt64(&p.execsPub))
	}
	return total
}

// publishExecs refreshes every worker's published counter; called when the
// workers are quiescent (end of Drive).
func (f *Fleet) publishExecs() {
	for i, w := range f.workers {
		atomic.StoreInt64(&f.peers[i].execsPub, int64(w.stats.Execs))
	}
}

// Step performs one iteration on worker 0 and returns how many executions it
// spent — the fine-grained sampling hook the harness uses. For multi-worker
// fleets it advances only worker 0; use Run to drive the whole fleet.
func (f *Fleet) Step() int { return f.workers[0].Step() }

// Run fuzzes until at least execBudget total executions have been performed,
// sharding the remaining budget evenly across the workers. It may be called
// repeatedly to extend a campaign. With one worker it is the serial
// Engine.Run, sync-free and bit-for-bit reproducible against it. Run is
// Drive with no cancellation and no observer; see driver.go for the loop.
func (f *Fleet) Run(execBudget int) {
	if execBudget <= 0 {
		return // a zero Budget.Execs would mean "unbounded", not "spent"
	}
	f.Drive(nil, Budget{Execs: execBudget}, nil)
}

// Stats aggregates the campaign snapshot across workers: execution and path
// counters are summed, coverage is the size of the merged union map, crash
// figures come from the merged bank, and the corpus size is the shared
// corpus after folding every worker in. For a single-worker fleet it is
// exactly the engine's snapshot.
//
// Summed Paths counts each worker's locally-valuable executions: a path two
// workers discover concurrently within one merge window is counted twice
// (after a sync the pull deduplicates future discoveries). Edges comes from
// the merged union and never double-counts — prefer it when comparing runs
// at different worker counts.
func (f *Fleet) Stats() Stats {
	// The single-worker shortcut reads the engine directly — but only
	// while the shared state is untouched. Once anything has been merged
	// in (a network hub's remote material, an explicit SyncAll), the
	// union path below is the truthful snapshot: an aggregator hub that
	// executes nothing itself must still report the fleet's edges,
	// corpus, and crashes.
	if len(f.workers) == 1 && f.state.empty() {
		return f.workers[0].Stats()
	}
	var s Stats
	for _, w := range f.workers {
		ws := w.stats
		s.Iterations += ws.Iterations
		s.Execs += ws.Execs
		s.Paths += ws.Paths
		s.SemanticExecs += ws.SemanticExecs
		s.SemanticPaths += ws.SemanticPaths
		s.Sequences += ws.Sequences
		s.TargetRestarts += w.execRestarts()
	}
	for _, w := range f.workers {
		if w.sess == nil {
			continue
		}
		// Element-wise merge over the shared StateModel order; states
		// reached is the union (a state any worker exercised is reached).
		sc := w.sess.stateCoverage()
		if s.StateCoverage == nil {
			s.StateCoverage = sc
		} else {
			for j := range sc {
				s.StateCoverage[j].Sent += sc[j].Sent
				s.StateCoverage[j].Edges += sc[j].Edges
			}
		}
		so := w.sess.seqOpStats()
		if s.SeqOpStats == nil {
			s.SeqOpStats = so
		} else {
			for j := range so {
				s.SeqOpStats[j].Trials += so[j].Trials
				s.SeqOpStats[j].Hits += so[j].Hits
			}
		}
	}
	for j := range s.StateCoverage {
		if s.StateCoverage[j].Sent > 0 {
			s.StatesReached++
		}
	}
	if f.Adaptive() {
		for _, w := range f.workers {
			if !w.sched.on {
				continue
			}
			s.Distills += w.sched.distills
			ms := w.mutatorStats()
			if s.MutatorStats == nil {
				s.MutatorStats = ms
				continue
			}
			for j := range ms {
				s.MutatorStats[j].Trials += ms[j].Trials
				s.MutatorStats[j].Hits += ms[j].Hits
			}
		}
	}
	st := f.state
	st.mu.Lock()
	for _, w := range f.workers {
		st.virgin.MergeVirgin(w.virgin)
		st.corp.MergeFrom(w.corp)
	}
	s.Edges = st.virgin.Edges()
	s.CorpusPuzzles = st.corp.Len()
	st.mu.Unlock()
	bank := f.Crashes()
	s.UniqueCrashes = bank.Unique()
	s.Hangs = bank.Hangs()
	return s
}

// Crashes merges the workers' crash banks — plus any records that arrived
// from remote fleet nodes via the shared state — into one campaign-level
// bank, deduplicating faults found by several workers. A fresh bank is
// built per call so repeated snapshots never double-count. Remote records
// are folded with Absorb (idempotent max-count merge), so a local fault
// echoed back by a hub never inflates its own count.
func (f *Fleet) Crashes() *crash.Bank {
	if len(f.workers) == 1 {
		remote := f.state.CrashRecords()
		if len(remote) == 0 {
			return f.workers[0].Crashes()
		}
		bank := crash.NewBank()
		bank.MergeFrom(f.workers[0].crashes)
		for _, r := range remote {
			bank.Absorb(r)
		}
		return bank
	}
	bank := crash.NewBank()
	for _, w := range f.workers {
		bank.MergeFrom(w.crashes)
	}
	for _, r := range f.state.CrashRecords() {
		bank.Absorb(r)
	}
	return bank
}

// Corpus returns the shared campaign corpus after folding in every worker's
// local puzzles.
func (f *Fleet) Corpus() *corpus.Corpus {
	if len(f.workers) == 1 && f.state.CorpusLen() == 0 {
		return f.workers[0].Corpus()
	}
	st := f.state
	st.mu.Lock()
	for _, w := range f.workers {
		st.corp.MergeFrom(w.corp)
	}
	st.mu.Unlock()
	return st.corp
}
