package core

import (
	"sync"
	"time"

	"repro/internal/crash"
)

// This file is the step-driven campaign driver: the one loop every
// execution topology — serial, sharded-parallel, hub leaf, gossip mesh —
// advances a Fleet through. Drive checks for cancellation and reports
// progress at merge-window granularity, which is what the public session
// API (peachstar.Campaign.Start) builds on.
//
// Determinism contract: the driver only *observes* at window boundaries.
// The sequence of engine steps — and therefore the fuzzing streams, the
// coverage, the corpus and the crashes — is a function of the budget alone
// (for one worker: bit-for-bit the serial Engine.Run), as long as the run
// is not stopped early. Hooks read state; they never feed anything back
// into the workers.

// Budget bounds one driven run. Zero values mean "unbounded": a Budget
// with neither an exec target nor a deadline runs until the stop channel
// closes (callers must supply one in that case, or Drive never returns).
type Budget struct {
	// Execs is the total fleet execution target, in absolute "at least
	// this many campaign executions" terms; 0 means no execution bound.
	Execs int
	// Deadline is the wall-clock bound, checked before every engine step,
	// so a worker stops within one iteration of it instead of finishing
	// out a fixed merge window; the zero time means no deadline.
	Deadline time.Time
}

// WindowInfo is the driver's per-merge-window progress report, delivered
// to the WindowHook on the worker goroutine that finished the window.
type WindowInfo struct {
	// Worker indexes the worker that completed the window.
	Worker int
	// WorkerExecs is that worker's own execution count.
	WorkerExecs int
	// FleetExecs is the fleet total as of the workers' published records
	// (the ExecsApprox figure: exact at quiescence, lagging live workers
	// by at most one merge window).
	FleetExecs int
	// Edges is the published union edge count after this window.
	Edges int
	// NewEdges is how many edges this window added to the published
	// union; 0 when the window found nothing new (or another worker
	// published a larger union first).
	NewEdges int
	// NewCrashes are the unique crash records this worker discovered in
	// this window, in discovery order. Records are detached copies; the
	// same fault found by two workers appears in both workers' windows
	// (deduplicate by crash.RecordKey for fleet-level reporting).
	NewCrashes []*crash.Record
	// Distills are the corpus distillations this worker ran in this
	// window, in execution order; nil unless the adaptive scheduler is on
	// and a distillation cadence boundary fell inside the window.
	Distills []DistillInfo
	// NewStates are the state-machine states this worker sent its first
	// message from in this window, in reach order; nil unless session
	// fuzzing is on (Config.Session).
	NewStates []StateInfo
}

// WindowHook observes one completed merge window. It is called on worker
// goroutines — several may fire concurrently on a multi-worker fleet — so
// implementations must be safe for concurrent use, and must not call back
// into the Fleet's non-concurrent methods (Stats, Run, Drive). Keep hooks
// fast: the worker does not fuzz while its hook runs.
type WindowHook func(WindowInfo)

// stopped is the driver's non-blocking cancellation probe, checked once
// per merge window.
func stopped(stop <-chan struct{}) bool {
	if stop == nil {
		return false
	}
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// Drive advances the fleet until the budget is spent or the stop channel
// closes, whichever comes first. It is the one loop that advances a
// campaign: Fleet.Run passes a nil stop and hook, the public session API
// (peachstar.Campaign.Start) passes both. Cancellation is checked at
// merge-window granularity — a stopped fleet finishes its in-flight
// windows, syncs them, and returns, so no discovered state is ever
// abandoned — and the hook, when non-nil, observes every completed window.
//
// Drive must not be called concurrently with itself or any other
// fleet-advancing method; Stats and Execs must wait for it to return
// (StatsApprox and ExecsApprox are the concurrent-safe observers). Its
// return publishes the quiescent fleet (PublishStats).
func (f *Fleet) Drive(stop <-chan struct{}, b Budget, hook WindowHook) {
	defer f.PublishStats()
	// remaining is the exec budget still to spend, sharded across the
	// workers in driveWorker; -1 means no exec bound. The sentinel must
	// not be 0: a spent budget legitimately leaves 0 and the workers must
	// then do nothing, not fuzz forever.
	remaining := -1
	if b.Execs > 0 {
		remaining = max(b.Execs-f.Execs(), 0)
	}
	if len(f.workers) == 1 {
		f.driveWorker(stop, 0, remaining, b.Deadline, hook)
		return
	}
	var wg sync.WaitGroup
	for i := range f.workers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f.driveWorker(stop, i, remaining, b.Deadline, hook)
		}(i)
	}
	wg.Wait()
}

// driveWorker is the window loop, run once per worker: fuzz a merge window
// (checking the deadline before every step when one is set), exchange with
// the shared state, publish the worker's record, report to the hook, then
// re-check the exec target, the deadline, and the stop channel. The
// worker's exec target is its even share of remaining (the first
// remaining%n workers take one extra) on top of what it has already run;
// a worker whose share is zero returns without fuzzing or syncing.
//
// A one-worker fleet skips the exchange: it performs no sync operations at
// all — that is what keeps it bit-for-bit identical to the serial engine —
// and publishes the lone worker's own figures, whose state *is* the
// campaign state.
func (f *Fleet) driveWorker(stop <-chan struct{}, i, remaining int, deadline time.Time, hook WindowHook) {
	w := f.workers[i]
	hasTarget := remaining >= 0
	target := 0
	if hasTarget {
		n := len(f.workers)
		target = w.stats.Execs + remaining/n
		if i < remaining%n {
			target++
		}
	}
	hasDeadline := !deadline.IsZero()
	for {
		if hasTarget && w.stats.Execs >= target {
			return
		}
		//peachstar:nondeterministic wall-clock deadline only gates loop exit, never fuzzing state
		if hasDeadline && !time.Now().Before(deadline) {
			return
		}
		if stopped(stop) {
			return
		}
		window := w.stats.Execs + f.merge
		if hasTarget && window > target {
			window = target
		}
		for w.stats.Execs < window && w.execErr == nil {
			//peachstar:nondeterministic wall-clock deadline only gates loop exit, never fuzzing state
			if hasDeadline && !time.Now().Before(deadline) {
				break
			}
			w.Step()
		}
		var edges, corpusLen int
		if len(f.workers) == 1 {
			edges, corpusLen = f.serialFigures()
		} else {
			edges, corpusLen = f.syncWindow(i)
		}
		f.publishWindow(i, edges, corpusLen, hook)
		if w.execErr != nil {
			// Unrecoverable backend: the in-flight window was synced and
			// reported, but no further fuzzing is possible on this worker.
			return
		}
	}
}

// serialFigures is the single-worker fleet's published union view: the
// lone worker's own edges and corpus, raised to the shared state's when
// remote peers (a hub's leaves, mesh links) have merged more into it
// than the worker has pulled back out — the same relay-fleet logic
// PublishStats applies at quiescence, so live Snapshots and StatsEvents
// on a serving single-worker campaign include remote material.
func (f *Fleet) serialFigures() (edges, corpusLen int) {
	w := f.workers[0]
	se, sl := f.state.Figures()
	return max(w.virgin.Edges(), se), max(w.corp.Len(), sl)
}

// syncWindow runs worker i's merge window against the shared state and
// captures the post-merge union figures under the same lock, so the
// window's published edge and corpus counts are exactly the state this
// window left behind.
func (f *Fleet) syncWindow(i int) (edges, corpusLen int) {
	st := f.state
	st.mu.Lock()
	f.peers[i].Exchange(st.virgin, st.corp, st.crashes)
	edges = st.virgin.Edges()
	corpusLen = st.corp.Len()
	st.mu.Unlock()
	return edges, corpusLen
}

// publish rewrites worker i's published record from its engine — at a
// window end on the worker's goroutine, and at a flush or a quiescent
// point on the caller's.
func (f *Fleet) publish(i int) {
	p := f.peers[i]
	p.mu.Lock()
	p.w.statsInto(&p.pub)
	p.mu.Unlock()
}

// publishWindow publishes worker i's record and the fleet-level union
// figures (the race-safe StatsApprox inputs), then delivers the window to
// the hook.
func (f *Fleet) publishWindow(i int, edges, corpusLen int, hook WindowHook) {
	p, w := f.peers[i], f.workers[i]
	f.publish(i)
	f.pubCorpus.Store(int64(corpusLen))
	delta := f.publishEdges(edges)
	if hook == nil {
		return
	}
	var newRecs []*crash.Record
	if n := w.crashes.Unique(); n > p.crashesSeen {
		recs := w.crashes.Records()
		newRecs = recs[p.crashesSeen:]
		p.crashesSeen = n
	}
	hook(WindowInfo{
		Worker:      i,
		WorkerExecs: w.stats.Execs,
		FleetExecs:  f.ExecsApprox(),
		Edges:       int(f.pubEdges.Load()),
		NewEdges:    delta,
		NewCrashes:  newRecs,
		Distills:    w.takeDistills(),
		NewStates:   w.takeNewStates(),
	})
}

// publishEdges raises the published union edge count to edges (it never
// lowers it — workers publish concurrently and coverage only grows; only
// PublishStats, at quiescence, stores a lower figure) and returns how many
// edges this publication added.
func (f *Fleet) publishEdges(edges int) (delta int) {
	for {
		old := f.pubEdges.Load()
		if int64(edges) <= old {
			return 0
		}
		if f.pubEdges.CompareAndSwap(old, int64(edges)) {
			return edges - int(old)
		}
	}
}

// PublishStats refreshes every published figure while the fleet is
// quiescent (no Drive in flight): every worker's record, and the union
// edge and corpus figures — taken from the lone worker (serial fleets
// never sync, so the worker is the union) or from the shared state (which
// every worker's final window synced into). The union figures are stored,
// not raised: at quiescence they are exact, including after a restore
// rolled the campaign back. Drive's return, Stats and RestoreCheckpoint
// call it; so do drivers between windows, which is how Run.Snapshot and
// the final StatsEvent settle to Stats.
func (f *Fleet) PublishStats() {
	for i := range f.peers {
		f.publish(i)
	}
	var edges, corpusLen int
	if len(f.workers) == 1 {
		// A relay fleet (a hub that executes nothing) accumulates remote
		// state its idle worker never pulled; serialFigures reports
		// whichever view knows more.
		edges, corpusLen = f.serialFigures()
	} else {
		edges, corpusLen = f.state.Figures()
	}
	f.pubEdges.Store(int64(edges))
	f.pubCorpus.Store(int64(corpusLen))
}

// StatsApprox is the concurrent-safe campaign snapshot, safe to call from
// any goroutine while Drive is in flight: the sum of the workers'
// published records (Stats.add), with the published union Edges and
// CorpusPuzzles and the crash figures of the merged bank (crash banks
// are internally locked, so those are exact at all times). While a fleet
// runs, each record is as of its worker's latest merge window, so the
// figures lag by at most one window; at quiescence, after PublishStats,
// StatsApprox equals Stats.
func (f *Fleet) StatsApprox() Stats {
	var s Stats
	for _, p := range f.peers {
		p.mu.Lock()
		s.add(&p.pub)
		p.mu.Unlock()
	}
	s.Edges = int(f.pubEdges.Load())
	s.CorpusPuzzles = int(f.pubCorpus.Load())
	bank := f.Crashes()
	s.UniqueCrashes = bank.Unique()
	s.Hangs = bank.Hangs()
	return s
}
