// Package executor is the execution backend behind the fuzzing engine: the
// one seam through which a generated packet becomes an observed outcome.
//
// The paper's fuzzer supervises a *separate instrumented server process*
// (Algorithm 1: RUNTARGET, with CRASH and HANG observed by the
// supervisor). This package has two tiers of that supervisor:
//
//   - InProc runs an in-process Go reimplementation of the target: it
//     resets the tracer, calls the target's handler and recovers its
//     faults — simulated memory violations from internal/mem and native
//     Go runtime errors, the SEGV class. It never reports a hang: no
//     in-process target can wedge. It is the fast, bit-for-bit
//     deterministic conformance tier every default campaign runs on.
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
	"fmt"
	"runtime"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/coverage"
	"repro/internal/mem"
)

// Outcome classifies one target execution.
type Outcome int

// Execution outcomes. OK covers both accepted and cleanly-rejected packets;
// the distinction the fuzzer cares about is carried by the coverage map.
const (
	OK Outcome = iota
	Crash
	Hang
)

// String returns the conventional lowercase name of the outcome.
func (o Outcome) String() string {
	switch o {
	case OK:
		return "ok"
	case Crash:
		return "crash"
	case Hang:
		return "hang"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// Result is the supervisor's view of one execution: what happened and the
// fault details when it crashed. The execution's coverage stays in the
// backend's tracer until the next Run or until the engine consumes it; the
// engine hashes it into a crash's path signature (Tracer.PathHash) only
// when there is a crash to triage.
// The fields below the fault are filled only by the process backend.
type Result struct {
	Outcome Outcome
	Fault   *mem.Fault // non-nil iff Outcome == Crash
	// HangMillis is the budget the hanging execution exhausted: the
	// process backend's watchdog timeout, in milliseconds. 0 unless
	// Outcome == Hang (in-process executions never hang).
	HangMillis int
	// Repro, when non-nil, is the exact packet sequence (oldest first,
	// the current packet last) that drove the target from a fresh start
	// to this crash or hang — the replayable reproducer captured by the
	// process executor. Always nil for in-process executions, whose
	// targets are reset around every packet.
	Repro [][]byte
	// ReproStarts, when Repro is non-nil, lists the indices into Repro
	// where a protocol session began (SessionExecutor boundaries). Empty
	// when the journal spans a single implicit session.
	ReproStarts []int
}

// Executor runs one generated packet against the target and classifies the
// outcome. Implementations own a coverage tracer that, after each Run,
// holds exactly that execution's coverage map, and reset it at the start
// of every Run. The engine reads the map once per execution — a crash's
// path signature first, then coverage.Virgin.Consume, which merges it into
// the campaign's virgin state and clears it — so a Reset at the next Run
// usually finds nothing left to clear. Nothing may read the tracer after
// the engine has observed the execution.
//
// Run returns an error only for backend-infrastructure failures the
// executor cannot recover by itself (the target binary is missing, the
// spawn loop exhausted its retries); target crashes and hangs are normal
// Results. An Executor is not safe for concurrent use; each fuzzing worker
// owns one.
type Executor interface {
	// Run executes one packet and classifies what happened.
	Run(packet []byte) (Result, error)
	// Tracer exposes the coverage map of the most recent Run, until the
	// engine consumes it.
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
// reproducer journal (Result.ReproStarts). Executors that do not
// implement it are driven sequence-blind, which is still correct: the
// sequence just runs into whatever state the target was left in.
type SessionExecutor interface {
	// BeginSession marks the start of a new protocol session. The error
	// return is reserved for unrecoverable backend failures, like Run's.
	BeginSession() error
}

// Target is an in-process program under test: a packet handler that
// reports coverage through the given tracer. Concrete protocol targets
// live in internal/targets and implement the richer targets.Target
// interface, which embeds this one.
type Target interface {
	// Handle processes one protocol packet. It may panic with *mem.Fault
	// (simulated memory violation) or any runtime error (native fault);
	// InProc recovers both.
	Handle(t *coverage.Tracer, packet []byte)
}

// StateCheckpointer is the optional interface of targets whose long-lived
// state (register banks, simulated heap wear, activation flags) a campaign
// checkpoint can capture — the target layer of the checkpoint seam.
// Targets that implement it make warm restarts exact: the restored
// campaign resumes against the same target state the interrupted one had
// accumulated, not a fresh instance. InProc forwards it. Targets without
// it — including every real target process, whose memory the fuzzer cannot
// serialize — start fresh after a restore, which is the same contract a
// real-target campaign has after any supervised restart.
type StateCheckpointer interface {
	// StateFields lists the target's durable state once, in encoding
	// order; each field both writes itself into a checkpoint and
	// restores itself from one, so the two directions cannot drift. Nil
	// means there is no state to capture.
	StateFields() []checkpoint.Field
}

// SessionResetter is the optional interface of in-process targets that
// hold per-session state: ResetSession clears exactly the state a real
// server would lose when a client reconnects (activation flags, sequence
// numbers) — not long-lived server data.
type SessionResetter interface {
	ResetSession()
}

// InProc is the in-process execution backend: one target instance and the
// tracer its executions report into.
type InProc struct {
	target Target
	tracer *coverage.Tracer
}

// NewInProc returns an in-process executor over the given target.
func NewInProc(t Target) *InProc {
	return &InProc{target: t, tracer: coverage.NewTracer()}
}

// Run executes one packet, returning the classified result. The tracer is
// reset before the execution, so after Run returns the tracer holds exactly
// this execution's coverage. The error is always nil: every abnormal
// termination becomes a Crash result.
//
// Inside the engine the reset is a loop over an empty log: Virgin.Consume
// cleared the tracer and emptied its first-hit log after the previous
// execution, so the reset costs nothing and changes nothing. It stays for
// the callers that run back to back with no Consume in between and then
// read the tracer: cmd/bench's stage replay calls Run over a batch and
// reads CountEdges, and without the reset its coverage.edges_per_exec and
// crack counts would sum coverage across executions.
func (x *InProc) Run(packet []byte) (res Result, err error) {
	x.tracer.Reset()
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		res.Outcome = Crash
		switch f := rec.(type) {
		case *mem.Fault:
			res.Fault = f
		case runtime.Error:
			// Native Go faults (index out of range, nil deref)
			// correspond to the SEGV class in Table I; the site
			// is the panicking frame.
			res.Fault = &mem.Fault{Kind: mem.SEGV, Site: panicSite()}
		default:
			res.Fault = &mem.Fault{Kind: mem.SEGV, Site: fmt.Sprint(rec)}
		}
	}()
	x.target.Handle(x.tracer, packet)
	return Result{Outcome: OK}, nil
}

// Tracer exposes the coverage map of the most recent Run.
func (x *InProc) Tracer() *coverage.Tracer { return x.tracer }

// Close is a no-op: in-process targets have no resources beyond the
// campaign's own memory.
func (x *InProc) Close() error { return nil }

// StateFields forwards the target's field list (StateCheckpointer), or
// nil when the target has no capturable state.
func (x *InProc) StateFields() []checkpoint.Field {
	if t, ok := x.target.(StateCheckpointer); ok {
		return t.StateFields()
	}
	return nil
}

// BeginSession asks the target to reset its per-session state, when it
// knows how (SessionResetter); targets without session state need
// nothing reset. Never fails.
func (x *InProc) BeginSession() error {
	if t, ok := x.target.(SessionResetter); ok {
		t.ResetSession()
	}
	return nil
}

// panicSite walks the stack to find the first frame outside this package
// and the runtime, giving a stable dedup key for native faults. The key is
// the function name without a line number: one vulnerable check commonly
// manifests at several adjacent fault PCs (a slice expression and the index
// next to it), and ASan-style unique-bug counting — what the paper's
// Table I reports — treats those as one bug.
func panicSite() string {
	var pcs [32]uintptr
	n := runtime.Callers(4, pcs[:])
	frames := runtime.CallersFrames(pcs[:n])
	for {
		f, more := frames.Next()
		if f.Function != "" && !isInfra(f.Function) {
			return f.Function
		}
		if !more {
			break
		}
	}
	return "unknown"
}

func isInfra(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "repro/internal/executor.")
}
