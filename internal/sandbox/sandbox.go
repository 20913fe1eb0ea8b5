// Package sandbox runs one target execution per packet and converts abnormal
// terminations into structured crash records.
//
// In the paper, the target is a separate instrumented process and crashes or
// hangs are observed by the fuzzer supervisor (Algorithm 1, RUNTARGET /
// CRASH / HANG). Here the target is an in-process Go reimplementation, so
// the sandbox's job is to (a) reset per-execution state and (b) recover
// from panics — both simulated memory faults from internal/mem and native
// Go runtime errors, which correspond to the SEGV class. It never reports a
// hang: no in-process target can wedge, so the Hang outcome belongs to the
// process executor's watchdog (internal/executor).
package sandbox

import (
	"fmt"
	"runtime"

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
// backend's tracer until the next Run; the engine hashes it into a crash's
// path signature (Tracer.PathHash) only when there is a crash to triage.
//
// Result is also the return type of the pluggable execution backends in
// internal/executor; the fields below the fault are filled only by backends
// that can supply them (the process executor reports HangSteps and
// journals Repro).
type Result struct {
	Outcome Outcome
	Fault   *mem.Fault // non-nil iff Outcome == Crash
	// HangSteps is the budget the hanging execution exhausted: the
	// watchdog timeout in milliseconds for a supervised process. 0 unless
	// Outcome == Hang.
	HangSteps int
	// Repro, when non-nil, is the exact packet sequence (oldest first,
	// the current packet last) that drove the target from a fresh start
	// to this crash or hang — the replayable reproducer captured by the
	// process executor. Always nil for in-process executions, whose
	// targets are reset around every packet.
	Repro [][]byte
	// ReproStarts, when Repro is non-nil, lists the indices into Repro
	// where a protocol session began (executor.SessionExecutor
	// boundaries). Empty when the journal spans a single implicit
	// session.
	ReproStarts []int
}

// Target is the minimal interface the sandbox needs: a packet handler that
// reports coverage through the given tracer. Concrete protocol targets live
// in internal/targets and implement the richer targets.Target interface,
// which embeds this one.
type Target interface {
	// Handle processes one protocol packet. It may panic with *mem.Fault
	// (simulated memory violation) or any runtime error (native fault);
	// the sandbox recovers both.
	Handle(t *coverage.Tracer, packet []byte)
}

// StateCheckpointer is the optional interface of targets whose long-lived
// state (register banks, simulated heap wear, activation flags) a campaign
// checkpoint can capture. Targets that implement it make warm restarts
// exact: the restored campaign resumes against the same target state the
// interrupted one had accumulated, not a fresh instance. Targets without
// it — including every real target process, whose memory the fuzzer cannot
// serialize — start fresh after a restore, which is the same contract a
// real-target campaign has after any supervised restart.
type StateCheckpointer interface {
	// StateFields lists the target's durable state once, in encoding
	// order; each field both writes itself into a checkpoint and
	// restores itself from one, so the two directions cannot drift.
	StateFields() []checkpoint.Field
}

// Runner executes packets against one target instance with one tracer.
type Runner struct {
	target Target
	tracer *coverage.Tracer
}

// NewRunner returns a runner for the given target. The runner owns its
// tracer; callers read coverage through Tracer().
func NewRunner(t Target) *Runner {
	return &Runner{target: t, tracer: coverage.NewTracer()}
}

// Tracer exposes the runner's coverage tracer so the engine can inspect the
// map of the most recent execution.
func (r *Runner) Tracer() *coverage.Tracer { return r.tracer }

// Target exposes the runner's target instance, so session-aware callers
// can reach optional per-session interfaces the target implements.
func (r *Runner) Target() Target { return r.target }

// Run executes one packet, returning the classified result. The tracer is
// reset before the execution, so after Run returns the tracer holds exactly
// this execution's coverage.
func (r *Runner) Run(packet []byte) (res Result) {
	r.tracer.Reset()
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
	r.target.Handle(r.tracer, packet)
	return Result{Outcome: OK}
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
	for _, p := range []string{"runtime.", "repro/internal/sandbox."} {
		if len(fn) >= len(p) && fn[:len(p)] == p {
			return true
		}
	}
	return false
}
