package peachstar

// This file is the session-based run API — the one driver every execution
// topology (serial, sharded, hub leaf, mesh node) goes through. Start is
// the one context-aware entry point: the budget, the sync cadence and the
// network attachments travel in a RunConfig, and the returned Run is a
// handle the caller can wait on, stop, snapshot, and observe through a
// typed event stream.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/crash"
	"repro/internal/executor"
	"repro/internal/fleetnet"
)

// DefaultSyncEvery is the default number of local executions between
// sync windows of an attached (hub, leaf or mesh) campaign: four merge
// windows' worth.
const DefaultSyncEvery = 4 * core.DefaultMergeEvery

// DefaultStatsEvery is the default number of fleet executions between
// StatsEvents on a run's event stream.
const DefaultStatsEvery = 4 * core.DefaultMergeEvery

// DefaultEventBuffer is the default capacity of a run's event channel.
const DefaultEventBuffer = 256

// DefaultRelayEvery is the default wall-clock cadence of a RelayOnly
// session's sync rounds (a relay has no execution count to pace by).
const DefaultRelayEvery = 5 * time.Second

// RunConfig configures one campaign session started with Campaign.Start.
// The zero value is valid and means: fuzz with no execution or time bound
// (the session then runs until the context ends or Stop is called),
// default cadences, no attachments.
type RunConfig struct {
	// Execs is the total campaign execution target, in absolute terms:
	// the session drives the fleet until at least this many executions
	// have happened since the campaign was created (so extending a
	// campaign with a second session reuses the same scale). 0 means no
	// execution bound.
	Execs int
	// Duration, when positive, stops the session that long after Start,
	// checked before every engine step (so the session lands on its
	// deadline within one engine iteration, not one merge window).
	Duration time.Duration
	// SyncEvery is the number of local executions between sync windows
	// when the session has attachments — hub, leaf or mesh
	// (0 = DefaultSyncEvery). Remote material reaches the workers one
	// window after its exchange. Ignored without attachments.
	SyncEvery int
	// StatsEvery is the number of fleet executions between StatsEvents
	// on the event stream (0 = DefaultStatsEvery; negative disables
	// periodic stats, leaving only the final one).
	StatsEvery int
	// EventBuffer is the event channel's capacity
	// (0 = DefaultEventBuffer). When the buffer is full the oldest
	// event is dropped — except crashes, which evict older events
	// instead. See Run.Events.
	EventBuffer int
	// Attach lists the session's sync attachments, composably: serve
	// this campaign to remote leaves (WithHub), uplink it to a hub
	// (WithLeaf), mesh it with peers (WithMesh) — or drive an existing
	// SyncNode handle through its Attachment method.
	// Attachments created by WithHub/WithLeaf/WithMesh belong to the
	// session and are closed when it ends; borrowed handles are left
	// open for their owner.
	Attach []Attachment
	// RelayOnly makes the session execute nothing itself: the workers
	// stay idle while the session serves its attachments — accepting
	// hub or mesh peers and relaying fleet state between them every
	// DefaultRelayEvery — until the context ends, Stop is called, or the
	// deadline passes. For aggregator hubs and pure mesh relays.
	RelayOnly bool
	// Exec selects the session's execution backend: nil (the default)
	// fuzzes the campaign's in-process target exactly as always, while
	// WithProcTarget spawns and supervises a real server process for the
	// lifetime of the session — the campaign's coverage, corpus and crash
	// state carry across backend boundaries, so an in-process warmup
	// session can precede a real-target one. Process-backed sessions
	// require a single-worker campaign; the backend is closed (the target
	// killed) when the session ends. If the backend fails unrecoverably
	// mid-session (spawn retries exhausted), the session ends early and
	// Wait returns the failure.
	Exec ExecBackend
	// CheckpointPath, when non-empty, makes the session write a durable
	// campaign checkpoint to this file every CheckpointEvery executions,
	// after the final window, and (for a relay) every relay round — each
	// write an atomic replace, reported as a CheckpointEvent. The state is
	// captured between windows; the write itself runs in the background,
	// overlapping the next window (the session waits only if the previous
	// write is still in flight at the next checkpoint), and the final write
	// is on disk before Wait returns. A later campaign built with the same
	// options resumes from the file with Campaign.RestoreCheckpoint (or
	// peachstar -resume).
	CheckpointPath string
	// CheckpointEvery is the number of fleet executions between durable
	// checkpoints (0 = DefaultCheckpointEvery). Ignored without
	// CheckpointPath.
	CheckpointEvery int
}

// Attachment composes a fleet transport into a session: something a run
// serves, dials, or exchanges state with at its sync cadence. Build them
// with WithHub, WithLeaf or WithMesh (session-owned), or borrow a live
// SyncNode via its Attachment method.
type Attachment interface {
	// attach binds the attachment to the campaign under the session's
	// context. It returns the node the session loop drives — every window
	// is one of the node's sync rounds, which begins by flushing the
	// campaign's workers through the shared state (Fleet.SyncAll), as a
	// one-worker fleet never does by itself — and whether the session owns
	// the node and closes it when it ends.
	attach(ctx context.Context, c *Campaign) (n *SyncNode, owned bool, err error)
}

// attach makes a live node a borrowed Attachment: what
// SyncNode.Attachment returns.
func (n *SyncNode) attach(context.Context, *Campaign) (*SyncNode, bool, error) { return n, false, nil }

// joined is an Attachment whose node of one shape the session opens when
// it starts, under the session's context, and closes when it ends: what
// WithHub, WithLeaf and WithMesh return.
type joined struct {
	kind string
	opts MeshOptions
}

func (j joined) attach(ctx context.Context, c *Campaign) (*SyncNode, bool, error) {
	n, err := c.join(ctx, j.kind, j.opts)
	return n, true, err
}

// WithHub returns an attachment that serves the campaign's shared state
// to remote leaves on addr (host:port, ":0" picks a free port) for the
// lifetime of the session, publishing the campaign's own discoveries into
// it — and folding the leaves' back out — every RunConfig.SyncEvery
// executions. The hub accepts and exchanges in the background.
func WithHub(addr string) Attachment {
	return joined{"hub", MeshOptions{Listen: addr, StaticOnly: true}}
}

// WithLeaf returns an attachment that uplinks the campaign to the fleet
// hub at addr, pushing local discoveries and pulling the fleet's every
// RunConfig.SyncEvery executions. Connection loss only pauses exchange —
// the campaign keeps fuzzing and later windows redial.
func WithLeaf(addr string) Attachment {
	return joined{"leaf", MeshOptions{Peers: []string{addr}, StaticOnly: true}}
}

// WithMesh returns an attachment that makes the campaign a node of a
// hub-less mesh fleet for the lifetime of the session, accepting peers
// on opts.Listen and keeping uplinks to every known peer, with one merge
// round per RunConfig.SyncEvery executions.
//
// The node of every With* attachment closes with the session, and a
// canceled session context tears its inbound connections down promptly.
func WithMesh(opts MeshOptions) Attachment { return joined{"mesh", opts} }

// Run is one live campaign session started by Campaign.Start: a handle to
// wait on (Wait, Done), stop (Stop), and observe (Snapshot, Events)
// while the fleet fuzzes in the background.
type Run struct {
	c     *Campaign
	cfg   RunConfig
	ctx   context.Context
	start time.Time
	// deadline is Start-time + RunConfig.Duration, zero without one.
	deadline time.Time

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
	events   chan Event
	// emitMu serializes producers of the event channel so buffer
	// eviction can re-queue crash events atomically (see emit).
	emitMu sync.Mutex
	// ctxStopped records that the context — not the budget or a
	// graceful Stop — ended the session; only then does Wait surface the
	// context's error.
	ctxStopped atomic.Bool

	atts, owned []*SyncNode // owned: the nodes the session opened and closes

	// exec is the session-owned execution backend swapped into the fleet
	// for this session (nil for default in-process sessions); prevExec is
	// what it displaced, restored when the session ends.
	exec     executor.Executor
	prevExec executor.Executor

	// statsNext is the next fleet-exec threshold that emits a StatsEvent
	// (atomic: window hooks race on it across workers).
	statsNext atomic.Int64

	// crashMu guards crashSeen, the fleet-level crash deduplication for
	// CrashEvents (workers may find the same fault independently).
	crashMu   sync.Mutex
	crashSeen map[string]bool

	// err is the session result, written before done closes.
	err error
}

// Start begins a session on the campaign and returns immediately with its
// handle; the fleet fuzzes on background goroutines. The session ends
// when the RunConfig budget (execs and/or deadline) is spent, the context
// is canceled, or Stop is called — whichever comes first — and Wait
// reports how it went. Cancellation is prompt: workers stop at the next
// merge-window boundary and a remote exchange in flight is interrupted
// rather than timed out. One session runs at a time; starting a second
// before the first is done is an error.
//
// A session with neither an exec target nor a deadline runs until
// canceled or stopped. A graceful Stop still flushes attachments with a
// final sync window; a context cancellation skips the flush and tears
// down immediately, and Wait then returns the context's error.
func (c *Campaign) Start(ctx context.Context, cfg RunConfig) (*Run, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if !c.running.CompareAndSwap(false, true) {
		return nil, fmt.Errorf("peachstar: campaign already has a session in flight")
	}
	if cfg.SyncEvery <= 0 {
		cfg.SyncEvery = DefaultSyncEvery
	}
	if cfg.StatsEvery == 0 {
		cfg.StatsEvery = DefaultStatsEvery
	}
	if cfg.EventBuffer <= 0 {
		cfg.EventBuffer = DefaultEventBuffer
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = DefaultCheckpointEvery
	}
	r := &Run{
		c:         c,
		cfg:       cfg,
		ctx:       ctx,
		start:     time.Now(),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		events:    make(chan Event, cfg.EventBuffer),
		crashSeen: make(map[string]bool),
	}
	if cfg.Duration > 0 {
		r.deadline = r.start.Add(cfg.Duration)
	}
	r.statsNext.Store(int64(cfg.StatsEvery))
	if cfg.StatsEvery < 0 {
		r.statsNext.Store(int64(^uint64(0) >> 2)) // periodic stats disabled
	}
	fail := func(err error) (*Run, error) {
		r.release()
		return nil, err
	}
	for _, a := range cfg.Attach {
		n, owned, err := a.attach(ctx, c)
		if err != nil {
			return fail(err)
		}
		r.atts = append(r.atts, n)
		if owned {
			r.owned = append(r.owned, n)
		}
	}
	if cfg.Exec != nil {
		ex, err := cfg.Exec.build(c)
		if err != nil {
			return fail(err)
		}
		prev, err := c.fleet.SwapExecutor(ex)
		if err != nil {
			ex.Close()
			return fail(err)
		}
		r.exec, r.prevExec = ex, prev
	}
	go r.loop()
	return r, nil
}

// Wait blocks until the session ends and returns its result: nil on a
// spent budget or a graceful Stop, the context's error if the context
// ended the session, or the final sync flush's error for an attached
// session whose last exchange failed. Wait may be called any number of
// times, from any goroutine.
func (r *Run) Wait() error {
	<-r.done
	return r.err
}

// Stop requests a graceful end of the session: workers finish their
// in-flight merge windows, attachments get a final flush, and Wait
// returns nil. Safe to call repeatedly and concurrently; after the
// session is done it is a no-op.
func (r *Run) Stop() {
	r.stopOnce.Do(func() { close(r.stop) })
}

// Done returns a channel closed when the session has fully ended
// (workers stopped, attachments flushed and closed) — the select-friendly
// form of Wait.
func (r *Run) Done() <-chan struct{} { return r.done }

// Events returns the session's typed event stream: StatsEvent,
// NewCoverageEvent, CrashEvent, DistillEvent, StateEvent,
// SyncWindowEvent and CheckpointEvent items, emitted at
// merge-window granularity and closed when the session ends. The stream
// observes the campaign; it never perturbs it: events are produced
// without blocking the fuzzing loop, and when a slow consumer lets the
// buffer fill, the oldest events are dropped — except CrashEvents, which
// are always retained (older events are evicted to make room). Consume
// promptly (or not at all: an unread stream costs one fixed buffer).
func (r *Run) Events() <-chan Event { return r.events }

// Snapshot returns the campaign's progress without stopping it — safe to
// call from any goroutine at any time. It sums the record each worker
// publishes at the end of every merge window, so while the fleet runs
// every figure but the crash and hang counts (exact at all times) is as of
// each worker's latest window, at most one window behind. Once Wait
// returns it equals Campaign.Stats, field for field.
func (r *Run) Snapshot() Stats { return r.c.fleet.StatsApprox() }

// release gives back what Start acquired: the displaced execution backend
// is restored (clearing any sticky backend error) and the session's own
// closed (a process backend kills its target), owned attachments are
// closed, and the campaign's session slot is freed.
func (r *Run) release() {
	if r.exec != nil {
		r.c.fleet.SwapExecutor(r.prevExec)
		r.exec.Close()
	}
	for _, n := range r.owned {
		n.Close()
	}
	r.c.running.Store(false)
}

// job is one piece of a session's boundary work: the durable checkpoint,
// or one attachment's sync round. Its capture runs on the session
// goroutine at a window boundary, while the fleet is quiescent, and
// returns its finish, which runs on a goroutine of its own beside the next
// window and emits the job's event.
//
// The join rule, the only one: a job joins its own previous run before it
// captures again; a checkpoint's capture first joins every round, so its
// cut sees no exchange in flight; and the tail joins every job before the
// event stream closes.
type job struct {
	capture func() (finish func())
	done    chan struct{} // closed when the run in flight finishes; nil when none is
}

// run joins the job's previous run, captures, and starts the finish.
func (j *job) run() {
	j.join()
	finish := j.capture()
	done := make(chan struct{})
	j.done = done
	go func() { defer close(done); finish() }()
}

// join waits for the job's run in flight, if any.
func (j *job) join() {
	if j.done != nil {
		<-j.done
		j.done = nil
	}
}

// joinAll joins every job's run in flight.
func joinAll(jobs []*job) {
	for _, j := range jobs {
		j.join()
	}
}

// loop is the session driver, on its own goroutine — the one loop every
// session runs, whatever is attached: advance a window, run the checkpoint
// job if one is due, run every attachment's round job, until the budget is
// spent or the session is stopped. The window is the nearest of the
// budget, the next sync (when anything is attached) and the next
// checkpoint (when a path is set), so a bare session is exactly one Drive
// call. The tail joins the rounds; a graceful end then gets one
// synchronous round — its error is the session result — and a final
// checkpoint, joined before the events close. Failures inside the loop
// surface as events and the next window retries.
func (r *Run) loop() {
	defer func() {
		r.release()
		close(r.done)
	}()
	defer context.AfterFunc(r.ctx, r.stopForContext)()

	fleet := r.c.fleet
	jobs := make([]*job, len(r.atts))
	for i, n := range r.atts {
		jobs[i] = r.roundJob(n)
	}
	rounds := jobs // excludes the checkpoint job appended below
	var ckpt *job
	if r.cfg.CheckpointPath != "" {
		ckpt = &job{capture: r.captureCheckpoint}
		jobs = append(jobs, ckpt)
	}
	nextCkpt := 0
	for !r.spent() {
		window := core.Budget{Execs: r.cfg.Execs, Deadline: r.deadline}
		if len(r.atts) > 0 {
			window.Execs = nearest(window.Execs, fleet.Execs()+r.cfg.SyncEvery)
		}
		if ckpt != nil {
			nextCkpt = (fleet.Execs()/r.cfg.CheckpointEvery + 1) * r.cfg.CheckpointEvery
			window.Execs = nearest(window.Execs, nextCkpt)
		}
		if !r.advance(window) {
			break // ended mid-window: straight to the tail
		}
		// A relay's workers never run, so its checkpoint is due every
		// round: it preserves what the relay absorbed from its peers.
		if ckpt != nil && (r.cfg.RelayOnly || fleet.Execs() >= nextCkpt) {
			joinAll(rounds)
			ckpt.run()
		}
		for _, j := range rounds {
			j.run()
		}
		if r.cfg.RelayOnly {
			r.report() // idle workers fire no window hook
		}
	}
	joinAll(rounds)
	var syncErr error
	if r.ctx.Err() != nil {
		// A flush against a dead context cannot succeed. Claim the stop:
		// this exit may see the cancellation before the watcher does.
		r.stopForContext()
	} else {
		syncErr = r.syncAll()
		if ckpt != nil {
			ckpt.run()
		}
	}
	joinAll(jobs)

	r.report()
	close(r.events)
	// An unrecoverable execution-backend failure trumps everything: the
	// session ended because fuzzing became impossible, and Wait must say
	// so. Read before the deferred executor restore clears it.
	if eerr := fleet.ExecError(); eerr != nil {
		r.err = eerr
		return
	}
	// The context's error is the session result only when the
	// cancellation is what ended the session: a cancel that lands after
	// the budget is already spent does not turn a completed run into a
	// failed one.
	if r.ctxStopped.Load() && !r.spent() {
		r.err = r.ctx.Err()
		return
	}
	r.err = syncErr
}

// nearest is the smaller of two exec targets, 0 meaning "no bound".
func nearest(a, b int) int {
	if a == 0 || b < a {
		return b
	}
	return a
}

// advance runs one window — a Drive to the window's exec target, or for a
// RelayOnly session (which executes nothing) a sleep of DefaultRelayEvery
// cut short by the deadline — and reports whether the session goes on:
// false when Stop, the context, or an unrecoverable execution backend
// ended it meanwhile.
func (r *Run) advance(window core.Budget) bool {
	if !r.cfg.RelayOnly {
		r.c.fleet.Drive(r.stop, window, r.windowHook)
	} else {
		wait := DefaultRelayEvery
		if !window.Deadline.IsZero() {
			wait = min(wait, time.Until(window.Deadline))
		}
		t := time.NewTimer(wait)
		defer t.Stop()
		select {
		case <-r.stop:
		case <-t.C:
		}
	}
	select {
	case <-r.stop:
		return false
	default:
		return r.ctx.Err() == nil && r.c.fleet.ExecError() == nil
	}
}

// report settles the published records and emits a StatsEvent. Called
// between windows, when the fleet is quiescent.
func (r *Run) report() {
	r.c.fleet.PublishStats()
	r.emit(StatsEvent{Stats: r.c.fleet.StatsApprox(), Elapsed: time.Since(r.start)})
}

// stopForContext claims the session stop on behalf of the canceled
// context — Wait will then report the context's error. It is a no-op
// when a graceful Stop already ended the session (that Stop keeps its
// "Wait returns nil" contract). Called by the context watcher, and by
// the loop's tail, which may run before the watcher is scheduled and must
// not mistake the cancellation for a clean finish.
func (r *Run) stopForContext() {
	r.stopOnce.Do(func() {
		r.ctxStopped.Store(true)
		close(r.stop)
	})
}

// spent reports whether the session's own budget is spent — the exec
// target reached or the deadline passed. Called on the session goroutine
// between windows, when the fleet is quiescent.
func (r *Run) spent() bool {
	if r.cfg.Execs > 0 && r.c.fleet.Execs() >= r.cfg.Execs {
		return true
	}
	return !r.deadline.IsZero() && !time.Now().Before(r.deadline)
}

// roundJob is attachment n's sync round as a job: its capture flushes the
// workers and captures the push figures (fleetnet.Node.Capture), and its
// finish exchanges and emits the SyncWindowEvent.
func (r *Run) roundJob(n *SyncNode) *job {
	return &job{capture: func() func() {
		exchange := n.node.Capture(r.ctx)
		return func() { r.emitWindow(n, exchange()) }
	}}
}

// syncAll runs one synchronous sync round on every attachment, emitting a
// SyncWindowEvent per round, and returns the first error (the mesh/leaf
// convention).
func (r *Run) syncAll() error {
	var firstErr error
	for _, n := range r.atts {
		began, execs := time.Now(), r.c.fleet.Execs()
		err := n.node.SyncContext(r.ctx)
		r.emitWindow(n, fleetnet.Round{Execs: execs, Elapsed: time.Since(began), Err: err})
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// emitWindow reports one attachment's round on the event stream.
func (r *Run) emitWindow(n *SyncNode, res fleetnet.Round) {
	r.emit(SyncWindowEvent{Attachment: n.kind, Addr: n.node.Endpoint(), Execs: res.Execs, Elapsed: res.Elapsed, Err: res.Err})
}

// windowHook is the driver's per-merge-window observer, called on worker
// goroutines: it turns window facts into stream events, then yields once
// if it emitted, so a consumer parked on Events() need not wait for this
// worker's next preemption tick (~10 ms on a saturated fleet).
func (r *Run) windowHook(w core.WindowInfo) {
	emitted := false
	emit := func(ev Event) { r.emit(ev); emitted = true }
	for _, rec := range w.NewCrashes {
		key := crash.RecordKey(rec)
		r.crashMu.Lock()
		dup := r.crashSeen[key]
		r.crashSeen[key] = true
		r.crashMu.Unlock()
		if !dup {
			emit(CrashEvent{Record: rec, Worker: w.Worker})
		}
	}
	if w.NewEdges > 0 {
		emit(NewCoverageEvent{Edges: w.Edges, Delta: w.NewEdges, Worker: w.Worker})
	}
	for _, st := range w.NewStates {
		emit(StateEvent{State: st.State, Exec: st.Exec, Worker: w.Worker})
	}
	for _, d := range w.Distills {
		emit(DistillEvent{
			Worker:         w.Worker,
			SeedsKept:      d.SeedsKept,
			SeedsDropped:   d.SeedsDropped,
			PuzzlesDropped: d.PuzzlesDropped,
			Edges:          d.Edges,
		})
	}
	for every := int64(r.cfg.StatsEvery); every > 0; {
		next := r.statsNext.Load()
		if int64(w.FleetExecs) < next {
			break
		}
		// Jump past the current count so a burst of windows yields one
		// event, not a backlog.
		target := (int64(w.FleetExecs)/every + 1) * every
		if r.statsNext.CompareAndSwap(next, target) {
			emit(StatsEvent{Stats: r.c.fleet.StatsApprox(), Elapsed: time.Since(r.start)})
			break
		}
	}
	if emitted {
		runtime.Gosched()
	}
}
