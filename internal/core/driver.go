package core

import (
	"sync"
	"sync/atomic"
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
	// FleetExecs is the fleet total as of the workers' published counters
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
// (StatsApprox and ExecsApprox are the concurrent-safe observers).
func (f *Fleet) Drive(stop <-chan struct{}, b Budget, hook WindowHook) {
	defer f.publishExecs()
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
// the shared state, publish counters, report to the hook, then re-check
// the exec target, the deadline, and the stop channel. The worker's exec
// target is its even share of remaining (the first remaining%n workers
// take one extra) on top of what it has already run; a worker whose share
// is zero returns without fuzzing or syncing.
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
	edges, corpusLen = w.virgin.Edges(), w.corp.Len()
	se, sl := f.state.Figures()
	if se > edges {
		edges = se
	}
	if sl > corpusLen {
		corpusLen = sl
	}
	return edges, corpusLen
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

// publishCounters stores worker i's own counters into its published
// atomics.
func (f *Fleet) publishCounters(i int) {
	p, w := f.peers[i], f.workers[i]
	atomic.StoreInt64(&p.execsPub, int64(w.stats.Execs))
	atomic.StoreInt64(&p.pathsPub, int64(w.stats.Paths))
	atomic.StoreInt64(&p.itersPub, int64(w.stats.Iterations))
	atomic.StoreInt64(&p.semExecsPub, int64(w.stats.SemanticExecs))
	atomic.StoreInt64(&p.semPathsPub, int64(w.stats.SemanticPaths))
	atomic.StoreInt64(&p.restartsPub, int64(w.execRestarts()))
	if w.sess != nil {
		atomic.StoreInt64(&p.seqsPub, int64(w.stats.Sequences))
		atomic.StoreInt64(&p.statesPub, int64(w.sess.reachedN))
	}
	if w.sched.on {
		for mi := range p.mutTrialsPub {
			var t, h uint64
			for m := range w.sched.trialsAll {
				t += w.sched.trialsAll[m][mi]
				h += w.sched.hitsAll[m][mi]
			}
			atomic.StoreInt64(&p.mutTrialsPub[mi], int64(t))
			atomic.StoreInt64(&p.mutHitsPub[mi], int64(h))
		}
		atomic.StoreInt64(&p.distillsPub, int64(w.sched.distills))
	}
}

// publishWindow stores worker i's counters and the fleet-level union
// figures into the published atomics (the race-safe StatsApprox inputs),
// then delivers the window to the hook.
func (f *Fleet) publishWindow(i int, edges, corpusLen int, hook WindowHook) {
	p, w := f.peers[i], f.workers[i]
	f.publishCounters(i)
	atomic.StoreInt64(&f.pubCorpus, int64(corpusLen))
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
		Edges:       int(atomic.LoadInt64(&f.pubEdges)),
		NewEdges:    delta,
		NewCrashes:  newRecs,
		Distills:    w.takeDistills(),
		NewStates:   w.takeNewStates(),
	})
}

// publishEdges raises the published union edge count to edges (it never
// lowers it — workers publish concurrently and coverage only grows) and
// returns how many edges this publication added.
func (f *Fleet) publishEdges(edges int) (delta int) {
	for {
		old := atomic.LoadInt64(&f.pubEdges)
		if int64(edges) <= old {
			return 0
		}
		if atomic.CompareAndSwapInt64(&f.pubEdges, old, int64(edges)) {
			return edges - int(old)
		}
	}
}

// PublishStats refreshes every published counter while the fleet is
// quiescent (no Drive in flight): worker counters become exact, and the
// union edge and corpus figures are taken from the lone worker (serial
// fleets never sync, so the worker is the union) or from the shared state
// (which every worker's final window synced into). Drivers call it after
// Drive returns so StatsApprox, and with it Run.Snapshot and the final
// StatsEvent, settle to exact values without the merge work of Stats.
func (f *Fleet) PublishStats() {
	for i := range f.workers {
		f.publishCounters(i)
	}
	if len(f.workers) == 1 {
		// A relay fleet (a hub that executes nothing) accumulates remote
		// state its idle worker never pulled; serialFigures reports
		// whichever view knows more.
		edges, corpusLen := f.serialFigures()
		f.publishEdges(edges)
		atomic.StoreInt64(&f.pubCorpus, int64(corpusLen))
		return
	}
	edges, corpusLen := f.state.Figures()
	f.publishEdges(edges)
	atomic.StoreInt64(&f.pubCorpus, int64(corpusLen))
}

// StatsApprox is the concurrent-safe campaign snapshot: safe to call from
// any goroutine while Drive is in flight, at the price of precision.
//
// Which counters are exact and which approximate:
//
//   - Execs, Paths, Iterations, SemanticExecs, SemanticPaths: read from
//     the workers' published counters — as of each worker's latest merge
//     window, so they lag a live fleet by at most one window and are
//     exact whenever the fleet is idle (after PublishStats).
//   - Edges, CorpusPuzzles: the published union figures, same
//     one-window lag.
//   - Sequences, StatesReached: published session counters, same lag;
//     StatesReached is the max over workers (an approximation of the
//     union — exact for the common single-worker session campaign). The
//     full per-state breakdown (StateCoverage, SeqOpStats) is only in
//     the exact Stats.
//   - UniqueCrashes, Hangs: exact at all times — crash banks are
//     internally locked, so Crashes() is safe concurrently.
//
// Stats remains the exact merge-everything snapshot, and remains unsafe
// to call while the fleet runs.
func (f *Fleet) StatsApprox() Stats {
	var s Stats
	for _, p := range f.peers {
		s.Execs += int(atomic.LoadInt64(&p.execsPub))
		s.Paths += int(atomic.LoadInt64(&p.pathsPub))
		s.Iterations += int(atomic.LoadInt64(&p.itersPub))
		s.SemanticExecs += int(atomic.LoadInt64(&p.semExecsPub))
		s.SemanticPaths += int(atomic.LoadInt64(&p.semPathsPub))
		s.TargetRestarts += int(atomic.LoadInt64(&p.restartsPub))
		s.Sequences += int(atomic.LoadInt64(&p.seqsPub))
		if n := int(atomic.LoadInt64(&p.statesPub)); n > s.StatesReached {
			s.StatesReached = n
		}
	}
	s.Edges = int(atomic.LoadInt64(&f.pubEdges))
	s.CorpusPuzzles = int(atomic.LoadInt64(&f.pubCorpus))
	if f.Adaptive() {
		ms := make([]MutatorStat, len(f.workers[0].muts))
		for i, m := range f.workers[0].muts {
			ms[i].Name = m.Name()
		}
		for _, p := range f.peers {
			for i := range ms {
				ms[i].Trials += uint64(atomic.LoadInt64(&p.mutTrialsPub[i]))
				ms[i].Hits += uint64(atomic.LoadInt64(&p.mutHitsPub[i]))
			}
			s.Distills += int(atomic.LoadInt64(&p.distillsPub))
		}
		s.MutatorStats = ms
	}
	bank := f.Crashes()
	s.UniqueCrashes = bank.Unique()
	s.Hangs = bank.Hangs()
	return s
}
