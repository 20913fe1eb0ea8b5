// Package executor defines the pluggable execution backend behind the
// fuzzing engine: the one seam through which a generated packet becomes an
// observed outcome.
//
// The paper's fuzzer supervises a *separate instrumented server process*
// (Algorithm 1: RUNTARGET, with CRASH and HANG observed by the
// supervisor); this repository's targets have historically been in-process
// Go reimplementations run under internal/sandbox. This package makes the
// choice explicit:
//
//   - InProc wraps the sandbox runner unchanged — the fast, bit-for-bit
//     deterministic conformance tier every existing campaign runs on.
//   - Proc spawns and supervises a real server process, drives it over
//     TCP or UDP, detects crashes from connection resets and exit
//     statuses, classifies unresponsive targets as hangs with a watchdog,
//     restarts the target with campaign state preserved, and journals the
//     exact packet sequence since the last restart so every crash ships
//     with a replayable reproducer.
//
// The engine (internal/core) talks only to the Executor interface; which
// tier a campaign runs on is configuration.
package executor

import (
	"errors"

	"repro/internal/checkpoint"
	"repro/internal/coverage"
	"repro/internal/sandbox"
)

// Executor runs one generated packet against the target and classifies the
// outcome. Implementations own a coverage tracer that, after each Run,
// holds exactly that execution's coverage map — the engine merges it into
// the campaign's virgin state and hashes it for path signatures.
//
// Run returns an error only for backend-infrastructure failures the
// executor cannot recover by itself (the target binary is missing, the
// spawn loop exhausted its retries); target crashes and hangs are normal
// Results. An Executor is not safe for concurrent use; each fuzzing worker
// owns one.
type Executor interface {
	// Run executes one packet and classifies what happened.
	Run(packet []byte) (sandbox.Result, error)
	// Tracer exposes the coverage map of the most recent Run.
	Tracer() *coverage.Tracer
	// Close releases the backend (kills a supervised process, closes its
	// connection). Idempotent.
	Close() error
}

// SessionExecutor is the optional interface of executors that can mark
// protocol-session boundaries. The session-aware engine calls
// BeginSession before each message sequence; the executor resets
// whatever carries per-session target state — the in-process backend
// asks the target to clear its session fields, the process backend drops
// and re-establishes its connection — and records the boundary in its
// reproducer journal (sandbox.Result.ReproStarts). Executors that do not
// implement it are driven sequence-blind, which is still correct: the
// sequence just runs into whatever state the target was left in.
type SessionExecutor interface {
	// BeginSession marks the start of a new protocol session. The error
	// return is reserved for unrecoverable backend failures, like Run's.
	BeginSession() error
}

// StateCheckpointer is the optional interface of executors whose backend
// holds durable target state a campaign checkpoint can capture — the
// target layer of the checkpoint seam. The in-process backend implements
// it by walking the target's field list (sandbox.StateCheckpointer); the
// process backend does not: a real target's memory cannot be serialized,
// so a warm-restarted process campaign resumes against a freshly started
// target, exactly as it would after any supervised restart.
type StateCheckpointer interface {
	// SnapshotState writes the backend's target state, reporting whether
	// anything was written (false when the concrete target has no
	// capturable state).
	SnapshotState(w *checkpoint.Writer) bool
	// RestoreState overwrites the target state with a
	// SnapshotState-produced dump.
	RestoreState(r *checkpoint.Reader) error
}

// SessionResetter is the optional interface of in-process targets that
// hold per-session state: ResetSession clears exactly the state a real
// server would lose when a client reconnects (activation flags, sequence
// numbers) — not long-lived server data.
type SessionResetter interface {
	ResetSession()
}

// InProc is the in-process execution backend: the sandbox runner behind
// the Executor interface. It adds nothing and changes nothing — a campaign
// on an InProc executor is bit-for-bit identical to one built before the
// interface existed, which the golden-fingerprint tests pin.
type InProc struct {
	r *sandbox.Runner
}

// NewInProc returns an in-process executor over the given target.
func NewInProc(t sandbox.Target) *InProc {
	return &InProc{r: sandbox.NewRunner(t)}
}

// Run executes one packet in the sandbox. The error is always nil: the
// sandbox converts every abnormal termination into a classified Result.
func (x *InProc) Run(packet []byte) (sandbox.Result, error) {
	return x.r.Run(packet), nil
}

// Tracer exposes the sandbox runner's coverage tracer.
func (x *InProc) Tracer() *coverage.Tracer { return x.r.Tracer() }

// Close is a no-op: in-process targets have no resources beyond the
// campaign's own memory.
func (x *InProc) Close() error { return nil }

// SnapshotState writes the target's durable state through the checkpoint
// codec when the target knows how to capture it (sandbox.StateCheckpointer),
// reporting whether anything was written. Targets without capturable state
// contribute nothing to a campaign checkpoint.
func (x *InProc) SnapshotState(w *checkpoint.Writer) bool {
	t, ok := x.r.Target().(sandbox.StateCheckpointer)
	if !ok {
		return false
	}
	checkpoint.SnapshotFields(w, t.StateFields())
	return true
}

// RestoreState overwrites the target's state with a SnapshotState-produced
// dump. It fails when the target cannot restore state: a checkpoint that
// carries target state must land on a backend that can absorb it, or the
// warm restart would silently lose the continuation guarantee.
func (x *InProc) RestoreState(r *checkpoint.Reader) error {
	t, ok := x.r.Target().(sandbox.StateCheckpointer)
	if !ok {
		return errors.New("executor: checkpoint carries target state but the target cannot restore it")
	}
	return checkpoint.RestoreFields(r, t.StateFields())
}

// BeginSession asks the target to reset its per-session state, when it
// knows how (SessionResetter); targets without session state need
// nothing reset. Never fails.
func (x *InProc) BeginSession() error {
	if t, ok := x.r.Target().(SessionResetter); ok {
		t.ResetSession()
	}
	return nil
}
