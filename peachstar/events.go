package peachstar

import "time"

// This file defines the typed event stream of a running campaign session
// (Run.Events): what a caller can observe about a campaign while it runs,
// without touching the fuzzing loop. Events are emitted at merge-window
// granularity on the fleet's worker goroutines and delivered through a
// bounded drop-oldest channel — observation never stalls the hot loop,
// and a slow consumer loses old progress snapshots, never crash reports.

// Event is one item of a Run's event stream. The concrete types are
// StatsEvent, NewCoverageEvent, CrashEvent, DistillEvent, StateEvent,
// SyncWindowEvent, and CheckpointEvent; consumers type-switch:
//
//	for ev := range run.Events() {
//		switch ev := ev.(type) {
//		case peachstar.CrashEvent:
//			log.Printf("crash: %s at %s", ev.Record.Kind, ev.Record.Site)
//		case peachstar.StatsEvent:
//			log.Printf("%d execs, %d edges", ev.Stats.Execs, ev.Stats.Edges)
//		}
//	}
//
// The stream closes when the run finishes, so ranging over it doubles as
// a completion wait.
type Event interface {
	// event marks the closed set of stream item types.
	event()
}

// StatsEvent is a periodic campaign progress snapshot, emitted every
// RunConfig.StatsEvery executions (and once more, final, as the stream
// closes). Stats carries the approximate concurrent-safe counters of
// Run.Snapshot: execution and path counters as of each worker's latest
// merge window, crash figures exact; the final event is taken after the
// fleet has quiesced and is exact.
type StatsEvent struct {
	// Stats is the snapshot; see Run.Snapshot for which counters are
	// exact and which lag by up to one merge window.
	Stats Stats
	// Elapsed is the wall-clock time since Start.
	Elapsed time.Duration
}

func (StatsEvent) event() {}

// NewCoverageEvent reports that a merge window grew the fleet's union
// coverage map — the "the campaign is still learning" signal.
type NewCoverageEvent struct {
	// Edges is the union edge count after the window.
	Edges int
	// Delta is how many previously-virgin edges the window lit.
	Delta int
	// Worker indexes the worker whose window published the growth.
	Worker int
}

func (NewCoverageEvent) event() {}

// CrashEvent reports one unique fault, emitted at the end of the merge
// window in which a worker first recorded it and deduplicated fleet-wide
// (the same fault found concurrently by two workers is reported once).
// Crash events are never dropped by the stream's backpressure policy:
// when the buffer is full, older non-crash events are evicted instead.
// Crashes that arrive from remote fleet nodes over a sync attachment are
// merged into campaign state but not replayed as events — each node
// reports what it found itself.
type CrashEvent struct {
	// Record is the deduplicated fault (a detached copy).
	Record *CrashRecord
	// Worker indexes the worker that found it.
	Worker int
}

func (CrashEvent) event() {}

// DistillEvent reports one corpus distillation of an adaptive campaign
// (Options.Adaptive / RunConfig.Adaptive): a worker computed the greedy
// minimal covering set over its tracked valuable seeds' edge sets and
// pruned the puzzles of the seeds outside the cover. Emitted at the end
// of the merge window in which the distillation ran.
type DistillEvent struct {
	// Worker indexes the worker that distilled its corpus.
	Worker int
	// SeedsKept and SeedsDropped partition the worker's tracked seeds:
	// the kept ones cover the union edge set.
	SeedsKept    int
	SeedsDropped int
	// PuzzlesDropped is how many corpus puzzles the pruning removed.
	PuzzlesDropped int
	// Edges is the union edge-set size the cover preserves.
	Edges int
}

func (DistillEvent) event() {}

// StateEvent reports that a session campaign (Options.Sessions /
// Options.StateModel) reached a protocol state for the first time — the
// state-machine analogue of NewCoverageEvent. Emitted at the end of the
// merge window in which a worker first sent a message from the state; on
// a multi-worker fleet each worker reports its own first reach.
type StateEvent struct {
	// State is the reached state's name in the campaign's StateModel.
	State string
	// Exec is the worker's execution count when the state was reached.
	Exec int
	// Worker indexes the worker that reached it.
	Worker int
}

func (StateEvent) event() {}

// SyncWindowEvent reports one sync window of an attachment: a leaf's or
// mesh node's push/pull round trip that merges this campaign's
// discoveries with the rest of the fleet, or a hub's ("hub") local flush
// into the state its leaves exchange with. Err is nil on success; a failed
// exchange is not fatal (the campaign keeps fuzzing and the next window
// retries), so errors surface here rather than ending the run.
type SyncWindowEvent struct {
	// Attachment names the attachment kind: "hub", "leaf" or "mesh".
	Attachment string
	// Addr is the attachment's remote address (the hub address for a
	// leaf; the node's own accept address for a hub, or for a mesh, whose
	// exchanges fan out to every linked peer).
	Addr string
	// Execs is the campaign's local execution count when the window ran.
	Execs int
	// Elapsed is the exchange's duration.
	Elapsed time.Duration
	// Err is the exchange error, nil on success.
	Err error
}

func (SyncWindowEvent) event() {}

// CheckpointEvent reports one durable campaign checkpoint of a session
// with RunConfig.CheckpointPath set: the atomic write of the campaign's
// full state taken at a quiescent merge-window boundary. The write
// overlaps the next window, so the event is emitted when the write
// finishes and may arrive after coverage and crash events of later
// windows; Execs still names the cut the file holds. Err is nil on
// success; a failed write is not fatal (the campaign keeps fuzzing and
// the next checkpoint retries), so errors surface here rather than
// ending the run.
type CheckpointEvent struct {
	// Path is the checkpoint file written (RunConfig.CheckpointPath).
	Path string
	// Execs is the campaign execution count the checkpoint captures.
	Execs int
	// Bytes is the checkpoint's encoded size.
	Bytes int
	// Elapsed is the snapshot-and-write duration (not counting any wait
	// for the previous write to finish).
	Elapsed time.Duration
	// Err is the write error, nil on success.
	Err error
}

func (CheckpointEvent) event() {}

// emit delivers one event to the stream without ever blocking a worker:
// if the buffer is full, the oldest *droppable* event is evicted to make
// room — buffered CrashEvents are re-queued, never dropped, so a stalled
// consumer degrades the stream to "recent progress plus every crash".
//
// Every producer holds emitMu for the whole call — there is deliberately
// no lock-free fast path. That is the invariant that makes the
// evict-or-requeue dance safe: after this producer pops an element, the
// freed slot cannot be filled by anyone else (other producers wait on
// the mutex; the consumer only removes), so re-queuing a popped crash
// with a plain send can never block. Only a buffer holding nothing but
// crash events overflows crashes, and then oldest-first — memory stays
// bounded by the buffer either way.
func (r *Run) emit(ev Event) {
	r.emitMu.Lock()
	defer r.emitMu.Unlock()
	_, isCrash := ev.(CrashEvent)
	// A crash may pop at most the whole buffer of other crashes before
	// force-dropping the oldest; droppable events give up after one pop.
	for requeued := 0; ; {
		select {
		case r.events <- ev:
			return
		default:
		}
		select {
		case old := <-r.events:
			if _, c := old.(CrashEvent); c && requeued < cap(r.events) {
				r.events <- old // slot just freed; cannot block under emitMu
				requeued++
				if !isCrash {
					return // the front was a crash: drop ev itself instead
				}
				continue
			}
		default:
		}
		if !isCrash {
			select {
			case r.events <- ev:
			default:
			}
			return
		}
	}
}
