package repro

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/executor"
	"repro/internal/targets/iec104"
)

// Deep-state conformance: the reason session fuzzing exists, pinned as an
// experiment. The iec104.DeepSlave plants a fault reachable only through a
// correct multi-message session — STARTDT activation, at least two
// processed I-frames, then a single command, with no session reset in
// between. A sequence campaign walking the 104 state machine must find it
// within a modest budget; a single-packet campaign against the same target
// behind a per-connection executor provably cannot, because every
// execution starts from the deactivated state.

const deepFaultSite = "iec104deep.command.deep"

// perConnExec models the null hypothesis honestly: a real server that
// serves each packet on a fresh connection, so no session state survives
// between executions. Without it, a single-packet campaign against an
// in-process target would leak state across Runs and "find" the deep
// fault by accident of shared memory.
type perConnExec struct{ *executor.InProc }

func (x perConnExec) Run(pkt []byte) (executor.Result, error) {
	if err := x.BeginSession(); err != nil {
		return executor.Result{}, err
	}
	return x.InProc.Run(pkt)
}

// TestDeepStateConformance runs both arms at the same budget and seed.
func TestDeepStateConformance(t *testing.T) {
	const budget = 40000

	// Sequence arm: session fuzzing through the 104 state machine.
	tgt := iec104.NewDeep()
	eng, err := core.New(core.Config{
		Models:   tgt.Models(),
		Target:   tgt,
		Strategy: core.StrategyPeachStar,
		Seed:     1,
		Session:  tgt.StateModel(),
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(budget)
	var deep int
	for _, r := range eng.Crashes().Records() {
		if r.Site != deepFaultSite {
			continue
		}
		deep++
		if len(r.Sequence) < 4 {
			t.Errorf("deep-fault reproducer has %d messages, want >= 4 (STARTDT + 2 I-frames + command)", len(r.Sequence))
		}
		if len(r.SeqStarts) == 0 || r.SeqStarts[0] != 0 {
			t.Errorf("deep-fault reproducer SeqStarts = %v, want a session boundary at 0", r.SeqStarts)
		}
	}
	if deep == 0 {
		t.Fatalf("sequence campaign did not reach %s in %d execs (crashes: %+v)",
			deepFaultSite, budget, eng.Crashes().Records())
	}
	if s := eng.Stats(); s.StatesReached != 2 {
		t.Errorf("sequence campaign reached %d states, want 2", s.StatesReached)
	}

	// Single-packet arm: same target, same budget, same seed — but each
	// packet is its own connection. The fault's gate (activation plus two
	// accepted I-frames) can never be open when the command arrives.
	tgt2 := iec104.NewDeep()
	eng2, err := core.New(core.Config{
		Models:   tgt2.Models(),
		Target:   tgt2,
		Strategy: core.StrategyPeachStar,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng2.SwapExecutor(perConnExec{executor.NewInProc(tgt2)})
	eng2.Run(budget)
	for _, r := range eng2.Crashes().Records() {
		if r.Site == deepFaultSite {
			t.Fatalf("single-packet campaign reached the session-gated fault — the gate is broken: %+v", r)
		}
	}
	if s := eng2.Stats(); s.UniqueCrashes != 0 {
		t.Fatalf("single-packet arm crashed %d times; DeepSlave should only fault behind the session gate: %+v",
			s.UniqueCrashes, eng2.Crashes().Records())
	}
}

// TestSessionReproducibleRealTarget: a session campaign on the real IEC104
// state machine is reproducible for a fixed seed, adaptive on or off —
// the session analogue of TestAdaptiveReproducibleRealTarget.
func TestSessionReproducibleRealTarget(t *testing.T) {
	mk := func(adaptive bool) *core.Engine {
		tgt := iec104.NewDeep()
		eng, err := core.New(core.Config{
			Models:   tgt.Models(),
			Target:   tgt,
			Strategy: core.StrategyPeachStar,
			Seed:     5,
			Session:  tgt.StateModel(),
			Adaptive: adaptive,
		})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	for _, adaptive := range []bool{false, true} {
		a, b := mk(adaptive), mk(adaptive)
		a.Run(15000)
		b.Run(15000)
		sa, sb := a.Stats(), b.Stats()
		if !reflect.DeepEqual(sa, sb) {
			t.Fatalf("adaptive=%v: session runs diverged:\n%+v\n%+v", adaptive, sa, sb)
		}
		if sa.Sequences == 0 || sa.StatesReached == 0 {
			t.Fatalf("adaptive=%v: session counters empty: %+v", adaptive, sa)
		}
	}
}
