package core

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/corpus"
	"repro/internal/coverage"
	"repro/internal/crash"
	"repro/internal/executor"
	"repro/internal/rng"
)

// This file implements the sharded campaign runner: one fuzzing campaign
// split across N worker engines. Each worker owns the full serial machinery
// — its own RNG stream (split from the campaign seed), its own target
// instance and executor, its own coverage accumulator, puzzle corpus and
// crash bank — and runs the unmodified serial loop. Workers meet only at
// coarse-grained sync points: every DefaultMergeEvery executions a worker
// publishes its coverage and puzzles into the shared campaign state and
// folds the other workers' discoveries back out, all under one mutex.
// Between syncs there is no shared mutable state at all, so the hot loop
// is exactly the serial hot loop.

// DefaultMergeEvery is the number of per-worker executions between
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
	NewTarget func() executor.Target
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
// not be called concurrently with it (StatsApprox and ExecsApprox may).
type Fleet struct {
	workers []*Engine
	peers   []*workerPeer
	merge   int // per-worker execs between syncs (DefaultMergeEvery; tests lower it)
	// state is the shared campaign state. Workers touch it only at sync
	// points; everything else they own privately. A network transport
	// attaches to the same state (see State), which is how remote
	// discoveries reach the workers: they arrive in the shared state and
	// the workers' next pull folds them out.
	state *SyncState
	// pubEdges, pubCorpus and pubUnique are the fleet-level published
	// union figures, raised at every merge window (see driver.go) and
	// stored at quiescence by PublishStats; with the workers' published
	// records they are what StatsApprox reads.
	pubEdges  atomic.Int64
	pubCorpus atomic.Int64
	pubUnique atomic.Int64
	// banks are the crash banks Crashes merges, the shared state's first
	// and then each worker's, in the one order crash.Union locks them.
	banks []*crash.Bank
}

// workerPeer adapts one worker engine to the SyncPeer merge path. It holds
// the worker's cursors: how much of its corpus journal and coverage change
// log has been pushed into the shared state, and how much of the shared
// ones pulled back out, so a window is O(what was found since), not O(state).
type workerPeer struct {
	w                          *Engine
	pushed                     int // cursor into the worker's own journal
	pulled                     int // cursor into the shared corpus's journal
	virginPushed, virginPulled coverage.Cursor
	// selfID registers the fleet as the consumer of the worker's journal,
	// sharedID registers the worker as a consumer of the shared journal;
	// both feed journal compaction.
	selfID   int
	sharedID int
	// crashesSeen is the driver's per-worker crash watermark: how many of
	// this worker's unique records previous windows already reported
	// through the WindowHook. Touched only by the worker's own goroutine.
	crashesSeen int
	// pub is the worker's published progress record, rewritten by
	// Fleet.publish at each window end, flush and quiescent point, and
	// read by any goroutine through StatsApprox and ExecsApprox; mu
	// guards it.
	mu  sync.Mutex
	pub Stats
}

// Exchange is the local half of the merge protocol (invoked under the
// shared-state lock): publish this worker's coverage and puzzles, then fold
// the shared state back into the worker. The pull half is what makes
// sharding more than N independent campaigns — a worker stops re-counting
// paths the fleet has already found and gains donor material cracked by its
// peers (local or, through the network transport, remote). Puzzles move
// through ReadJournal and Absorb, the pair a network peer session uses.
// After each window the consumed journal prefixes are compacted away on
// both sides.
func (p *workerPeer) Exchange(virgin *coverage.Virgin, corp *corpus.Corpus, crashes *crash.Bank) error {
	w := p.w
	p.virginPushed, _ = virgin.MergeVirgin(w.virgin, p.virginPushed)
	p.virginPulled, _ = w.virgin.MergeVirgin(virgin, p.virginPulled)
	p.pushed = w.corp.ReadJournal(p.pushed, func(pz corpus.Puzzle) { corp.Absorb(pz) })
	w.corp.AdvancePeer(p.selfID, p.pushed)
	w.corp.CompactJournal()
	p.pulled = corp.ReadJournal(p.pulled, func(pz corpus.Puzzle) { w.corp.Absorb(pz) })
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
	f := &Fleet{
		merge: DefaultMergeEvery,
		state: NewSyncState(cfg.CorpusPerSig),
	}
	f.banks = append(f.banks, f.state.crashes)
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
		f.banks = append(f.banks, eng.crashes)
		f.peers = append(f.peers, &workerPeer{
			w:        eng,
			selfID:   eng.corp.RegisterPeer(0),
			sharedID: f.state.corp.RegisterPeer(0),
		})
	}
	return f, nil
}

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
	for i, p := range f.peers {
		f.state.Exchange(p)
		f.publish(i)
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
// arithmetic accessor, reading the workers' live counters. Like Stats it
// must not race with Drive; concurrent observers use ExecsApprox.
func (f *Fleet) Execs() int {
	total := 0
	for _, w := range f.workers {
		total += w.stats.Execs
	}
	return total
}

// ExecsApprox returns the fleet's total executions as of each worker's
// latest published record. Unlike Execs it is safe to call from any
// goroutine while a Drive is in flight — a fleetnet hub or mesh node
// reports local progress to remote peers from connection-handler
// goroutines through it. The figure lags the live counters by at most one
// merge window and is exact whenever the fleet is idle.
func (f *Fleet) ExecsApprox() int {
	total := 0
	for _, p := range f.peers {
		p.mu.Lock()
		total += p.pub.Execs
		p.mu.Unlock()
	}
	return total
}

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

// Stats is the campaign snapshot at quiescence: PublishStats, then the
// StatsApprox sum of the fresh records. Execution and path counters are
// summed over workers and crash figures are the merged bank's. Edges
// and CorpusPuzzles are the shared state's union figures: every worker's
// final window synced into it, so reading them merges nothing and Stats
// writes nothing but the published records. A one-worker fleet never syncs
// on its own, so its figures are max(worker, shared state) — the worker's
// own until an attachment or a hand SyncAll fills the state, and the union
// after every attached session's tail flush. For a single worker on an
// untouched state it is exactly the engine's snapshot.
//
// Summed Paths counts each worker's locally-valuable executions: a path two
// workers discover concurrently within one merge window is counted twice
// (after a sync the pull deduplicates future discoveries). Edges comes from
// the union and never double-counts — prefer it when comparing runs at
// different worker counts.
func (f *Fleet) Stats() Stats {
	f.PublishStats()
	return f.StatsApprox()
}

// Crashes merges the workers' crash banks — plus any records that arrived
// from remote fleet nodes via the shared state — into one campaign-level
// bank, deduplicating faults found by several workers. A fresh bank is
// built per call, for any worker count, so repeated snapshots never
// double-count and no caller holds a worker's live bank. Remote records
// are folded with Absorb (idempotent max-count merge), so a local fault
// echoed back by a hub never inflates its own count. It is the one way
// to list records, for one-shot reports; pollers read the published
// crash figures of StatsApprox instead.
func (f *Fleet) Crashes() *crash.Bank {
	bank := crash.NewBank()
	for _, w := range f.workers {
		bank.MergeFrom(w.crashes)
	}
	for _, r := range f.state.CrashRecords() {
		bank.Absorb(r)
	}
	return bank
}

// CorpusSignatures returns the rule signatures of every worker's corpus
// and the shared corpus, sorted and deduplicated. Reading them changes
// nothing a checkpoint stores or a peer receives.
func (f *Fleet) CorpusSignatures() []string {
	f.state.mu.Lock()
	sigs := f.state.corp.Signatures()
	f.state.mu.Unlock()
	for _, w := range f.workers {
		sigs = append(sigs, w.corp.Signatures()...)
	}
	sort.Strings(sigs)
	return slices.Compact(sigs)
}
