package peachstar

// This file is the public face of the real-target execution backend
// (internal/executor): session configuration that points a campaign at a
// spawned server process instead of the in-process runner, and the
// reproducer-replay helper that verifies a captured crash against a fresh
// target instance.

import (
	"fmt"
	"os"
	"time"

	"repro/internal/executor"
	"repro/internal/mem"
)

// FaultKind classifies a unique fault (CrashRecord.Kind): the simulated
// heap's ASan-style classes for in-process targets, plus the process
// executor's exit-status classes for real targets.
type FaultKind = mem.FaultKind

// ExecBackend selects the execution backend of one session
// (RunConfig.Exec): where a generated packet is actually run. Build one
// with WithProcTarget; a nil ExecBackend means the
// default in-process runner, which is bit-for-bit identical to every
// campaign that predates the backends.
type ExecBackend interface {
	// build materializes the backend for a campaign.
	build(c *Campaign) (executor.Executor, error)
}

// ProcOptions tunes a real-target backend beyond the command and address.
// The zero value is a sensible default for a local TCP server.
type ProcOptions struct {
	// Net is the transport, "tcp" (default) or "udp".
	Net string
	// ExecTimeout is the per-execution watchdog: how long one
	// send+receive round may take before the target is declared hung and
	// its process group is killed (0 = executor default, 200ms).
	ExecTimeout time.Duration
	// TargetStderr, when non-nil, receives the target's stderr (crash
	// banners); nil discards it.
	TargetStderr *os.File
	// Logf receives supervisor lifecycle messages — spawns, watchdog
	// fires, survived connection drops (nil = silent).
	Logf func(format string, args ...any)
}

// WithProcTarget returns an execution backend that spawns the given
// command as the target process and fuzzes it at addr, tuned by opts (the
// zero ProcOptions is TCP with the default watchdog). The literal
// substring "{addr}" in any argument is replaced with addr, so one value
// spells both where the server listens and where the fuzzer connects:
//
//	run, _ := campaign.Start(ctx, peachstar.RunConfig{
//		Execs: 100000,
//		Exec: peachstar.WithProcTarget([]string{"./server", "-listen", "{addr}"},
//			"127.0.0.1:1502", peachstar.ProcOptions{}),
//	})
//
// The session owns the process: it is spawned (with a liveness probe) when
// fuzzing starts, killed and respawned on every crash or watchdog hang
// with campaign state preserved, and torn down when the session ends.
// Crashes are classified by exit status and each ships with a replayable
// packet-sequence reproducer (CrashRecord.Sequence; verify with
// ReplayCrash). A process-backed session requires Options.Workers <= 1.
func WithProcTarget(cmd []string, addr string, opts ProcOptions) ExecBackend {
	return procBackend{cfg: executor.ProcConfig{
		Cmd:         cmd,
		Addr:        addr,
		Net:         opts.Net,
		ExecTimeout: opts.ExecTimeout,
		Stderr:      opts.TargetStderr,
		Logf:        opts.Logf,
	}}
}

// procBackend is the real-target ExecBackend.
type procBackend struct {
	cfg executor.ProcConfig
}

func (p procBackend) build(c *Campaign) (executor.Executor, error) {
	cfg := p.cfg
	// Jitter from the campaign seed, displaced so the retry stream never
	// aliases the fuzzing streams.
	cfg.Seed = c.cfg.Seed ^ 0x9e3779b97f4a7c15
	return executor.NewProc(cfg)
}

// ReplayResult reports how a reproducer replay went.
type ReplayResult struct {
	// Outcome is "crash", "hang", or "ok" (the target survived the whole
	// sequence — e.g. the original death came from outside, like an
	// operator kill, and is not input-driven).
	Outcome string
	// Kind and Site identify the fault the replay landed on; zero unless
	// Outcome is "crash".
	Kind FaultKind
	Site string
	// Match reports whether the replay reproduced the record's own fault
	// signature — the deterministic-reproducer property.
	Match bool
}

// ReplayCrash drives a fresh instance of the backend's target process
// through a captured reproducer (CrashRecord.Sequence) and reports what
// happened: whether the target crashed again, and whether the fault
// signature matches the record's. The target instance is private to the
// call, so replay after the capturing session has ended (or configure a
// different address): the configured address must be free.
//
// Records with no Sequence (in-process faults, records received over the
// fleet sync wire) and backends that are not process-backed are errors.
func ReplayCrash(b ExecBackend, rec *CrashRecord) (ReplayResult, error) {
	pb, ok := b.(procBackend)
	if !ok {
		return ReplayResult{}, fmt.Errorf("peachstar: ReplayCrash needs a WithProcTarget backend")
	}
	if rec == nil || len(rec.Sequence) == 0 {
		return ReplayResult{}, fmt.Errorf("peachstar: record has no reproducer sequence")
	}
	cfg := pb.cfg
	cfg.Seed = 1
	// Honor recorded session boundaries: handshake steps re-run against
	// fresh per-connection server state (sequence numbers regenerate)
	// instead of a byte-blind replay down one connection.
	res, err := executor.ReplaySession(cfg, rec.Sequence, rec.SeqStarts)
	if err != nil {
		return ReplayResult{}, err
	}
	out := ReplayResult{Outcome: res.Outcome.String()}
	if res.Outcome == executor.Crash && res.Fault != nil {
		out.Kind = res.Fault.Kind
		out.Site = res.Fault.Site
		out.Match = res.Fault.Kind == rec.Kind && res.Fault.Site == rec.Site
	}
	return out, nil
}
