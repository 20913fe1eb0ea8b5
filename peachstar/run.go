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
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/crash"
	"repro/internal/executor"
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
	// Deadline, when non-zero, stops the session at that wall-clock
	// instant, checked before every engine step (so the session lands on
	// it within one engine iteration, not one merge window).
	Deadline time.Time
	// Duration, when positive and Deadline is zero, is a relative
	// deadline of Start-time + Duration.
	Duration time.Duration
	// SyncEvery is the number of local executions between sync windows
	// when the session has attachments — hub, leaf or mesh
	// (0 = DefaultSyncEvery). Ignored without attachments.
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
	// RelayEvery — until the context ends, Stop is called, or the
	// deadline passes. For aggregator hubs and pure mesh relays.
	RelayOnly bool
	// RelayEvery is the wall-clock cadence of a RelayOnly session's
	// sync-and-report rounds (0 = DefaultRelayEvery). Ignored unless
	// RelayOnly is set.
	RelayEvery time.Duration
	// Adaptive switches the campaign's adaptive scheduler on before the
	// session starts (see Options.Adaptive) — for enabling it on a later
	// session of a campaign built without it. Enabling is permanent for
	// the campaign; false leaves the campaign's current mode unchanged
	// (it never switches the scheduler back off).
	Adaptive bool
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
	// write is still in flight), and the final write is on disk before
	// Wait returns. A later campaign built with the same options resumes
	// from the file with Campaign.RestoreCheckpoint (or peachstar -resume).
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

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
	events   chan Event
	// emitMu serializes producers of the event channel so buffer
	// eviction can re-queue crash events atomically (see emit).
	emitMu sync.Mutex
	// ctxStopped records (0/1) that the context — not the budget or a
	// graceful Stop — ended the session; only then does Wait surface the
	// context's error.
	ctxStopped int32

	atts, owned []*SyncNode // owned: the nodes the session opened and closes

	// ckpts hands checkpoint images to the session's writer goroutine,
	// which closes ckptsDone when it has written the last one; both nil
	// without RunConfig.CheckpointPath.
	ckpts     chan ckptImage
	ckptsDone chan struct{}

	// exec is the session-owned execution backend swapped into the fleet
	// for this session (nil for default in-process sessions); prevExec is
	// what it displaced, restored when the session ends.
	exec     executor.Executor
	prevExec executor.Executor

	// statsNext is the next fleet-exec threshold that emits a StatsEvent
	// (atomic: window hooks race on it across workers).
	statsNext int64

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
	if !atomic.CompareAndSwapInt32(&c.running, 0, 1) {
		return nil, fmt.Errorf("peachstar: campaign already has a session in flight")
	}
	if cfg.Deadline.IsZero() && cfg.Duration > 0 {
		cfg.Deadline = time.Now().Add(cfg.Duration)
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
	if cfg.RelayEvery <= 0 {
		cfg.RelayEvery = DefaultRelayEvery
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = DefaultCheckpointEvery
	}
	if cfg.Adaptive {
		// Safe here: the one-session invariant holds (CAS above) and the
		// fleet is quiescent until loop() starts driving it.
		c.fleet.EnableAdaptive()
	}
	r := &Run{
		c:         c,
		cfg:       cfg,
		ctx:       ctx,
		start:     time.Now(),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		events:    make(chan Event, cfg.EventBuffer),
		statsNext: int64(cfg.StatsEvery),
		crashSeen: make(map[string]bool),
	}
	if cfg.StatsEvery < 0 {
		r.statsNext = int64(^uint64(0) >> 2) // periodic stats disabled
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
// call from any goroutine at any time. Counters are approximate while
// the fleet runs: executions, paths and iteration counts are as of each
// worker's latest merge window (at most one window behind), and the edge
// and corpus figures are the fleet union as of the latest window; crash
// and hang counts are exact at all times. Once the session is done the
// snapshot is exact. For the exact-but-blocking alternative, use
// Campaign.Stats after Wait.
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
	atomic.StoreInt32(&r.c.running, 0)
}

// loop is the session driver, on its own goroutine — the one loop every
// session runs, whatever is attached: advance one window, take a durable
// checkpoint if one is due, sync every attachment, until the budget is
// spent or the session is stopped. The window is the nearest of the
// budget, the next sync (when anything is attached) and the next
// checkpoint (when a path is set), so a bare session is exactly one Drive
// call. A graceful end gets a final flush — its error is the session
// result — and a final checkpoint. Failures inside the loop surface as
// events and the next window retries. Checkpoints are taken between Drive
// calls, when every worker is quiescent: each is a consistent cut of the
// whole fleet. Writing one to disk is the session's checkpoint writer's
// job, overlapping the next window; the loop joins the writer before it
// closes the event stream.
func (r *Run) loop() {
	defer func() {
		r.release()
		close(r.done)
	}()
	defer context.AfterFunc(r.ctx, r.stopForContext)()

	fleet := r.c.fleet
	ckpt := r.cfg.CheckpointPath != ""
	if ckpt {
		r.ckpts, r.ckptsDone = make(chan ckptImage), make(chan struct{})
		go r.writeCheckpoints()
	}
	nextCkpt := 0
	for !r.spent() {
		window := core.Budget{Execs: r.cfg.Execs, Deadline: r.cfg.Deadline}
		if len(r.atts) > 0 {
			window.Execs = nearest(window.Execs, fleet.Execs()+r.cfg.SyncEvery)
		}
		if ckpt {
			nextCkpt = (fleet.Execs()/r.cfg.CheckpointEvery + 1) * r.cfg.CheckpointEvery
			window.Execs = nearest(window.Execs, nextCkpt)
		}
		if !r.advance(window) {
			break // ended mid-window: straight to the tail
		}
		// A relay's workers never run, so its checkpoint is due every
		// round: it preserves what the relay absorbed from its peers.
		if ckpt && (r.cfg.RelayOnly || fleet.Execs() >= nextCkpt) {
			r.checkpointNow()
		}
		r.syncAll()
		if r.cfg.RelayOnly {
			r.report() // idle workers fire no window hook
		}
	}
	var syncErr error
	if r.ctx.Err() != nil {
		// A flush against a dead context cannot succeed. Claim the stop:
		// this exit may see the cancellation before the watcher does.
		r.stopForContext()
	} else {
		syncErr = r.syncAll()
		if ckpt {
			r.checkpointNow()
		}
	}
	if ckpt {
		// Join the writer on every exit path: the last image is on disk
		// and its event on the stream before the stream closes.
		close(r.ckpts)
		<-r.ckptsDone
	}

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
	if atomic.LoadInt32(&r.ctxStopped) == 1 && !r.spent() {
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
// RelayOnly session (which executes nothing) a sleep of RelayEvery cut
// short by the deadline — and reports whether the session goes on: false
// when Stop, the context, or an unrecoverable execution backend ended it
// meanwhile.
func (r *Run) advance(window core.Budget) bool {
	if !r.cfg.RelayOnly {
		r.c.fleet.Drive(r.stop, window, r.windowHook)
	} else {
		wait := r.cfg.RelayEvery
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

// report settles the published counters and emits a StatsEvent. Called
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
		atomic.StoreInt32(&r.ctxStopped, 1)
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
	return !r.cfg.Deadline.IsZero() && !time.Now().Before(r.cfg.Deadline)
}

// syncAll runs one sync window on every attachment, emitting a
// SyncWindowEvent per exchange, and returns the first error (the
// mesh/leaf convention).
func (r *Run) syncAll() error {
	var firstErr error
	for _, n := range r.atts {
		began := time.Now()
		err := n.node.SyncContext(r.ctx)
		r.emit(SyncWindowEvent{
			Attachment: n.kind,
			Addr:       n.node.Endpoint(),
			Execs:      r.c.fleet.ExecsApprox(),
			Elapsed:    time.Since(began),
			Err:        err,
		})
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// windowHook is the driver's per-merge-window observer, called on worker
// goroutines: it turns window facts into stream events.
func (r *Run) windowHook(w core.WindowInfo) {
	for _, rec := range w.NewCrashes {
		key := crash.RecordKey(rec)
		r.crashMu.Lock()
		dup := r.crashSeen[key]
		r.crashSeen[key] = true
		r.crashMu.Unlock()
		if !dup {
			r.emit(CrashEvent{Record: rec, Worker: w.Worker})
		}
	}
	if w.NewEdges > 0 {
		r.emit(NewCoverageEvent{Edges: w.Edges, Delta: w.NewEdges, Worker: w.Worker})
	}
	for _, st := range w.NewStates {
		r.emit(StateEvent{State: st.State, Exec: st.Exec, Worker: w.Worker})
	}
	for _, d := range w.Distills {
		r.emit(DistillEvent{
			Worker:         w.Worker,
			SeedsKept:      d.SeedsKept,
			SeedsDropped:   d.SeedsDropped,
			PuzzlesDropped: d.PuzzlesDropped,
			Edges:          d.Edges,
		})
	}
	every := int64(r.cfg.StatsEvery)
	if every <= 0 {
		return
	}
	for {
		next := atomic.LoadInt64(&r.statsNext)
		if int64(w.FleetExecs) < next {
			return
		}
		// Jump past the current count so a burst of windows yields one
		// event, not a backlog.
		target := (int64(w.FleetExecs)/every + 1) * every
		if atomic.CompareAndSwapInt64(&r.statsNext, next, target) {
			r.emit(StatsEvent{Stats: r.c.fleet.StatsApprox(), Elapsed: time.Since(r.start)})
			return
		}
	}
}
