package repro

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/targets"
	"repro/peachstar"

	_ "repro/internal/targets/cs101"
	_ "repro/internal/targets/dnp3"
	_ "repro/internal/targets/iccp"
	_ "repro/internal/targets/iec104"
	_ "repro/internal/targets/iec61850"
	_ "repro/internal/targets/modbus"
)

// newSerialEngine builds a serial Peach* engine on a real target, with the
// adaptive scheduler on or off.
func newSerialEngine(tb testing.TB, target string, seed uint64, adaptive bool) *core.Engine {
	tb.Helper()
	tgt, err := targets.New(target)
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := core.New(core.Config{
		Models:   tgt.Models(),
		Target:   tgt,
		Strategy: core.StrategyPeachStar,
		Seed:     seed,
		Adaptive: adaptive,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return eng
}

// fingerprint compresses a campaign's observable outcome into one line:
// any change to the engine's RNG consumption or decision order moves at
// least one of these counters.
func fingerprint(eng *core.Engine) string { return fingerprintStats(eng.Stats()) }

func fingerprintStats(s core.Stats) string {
	return fmt.Sprintf("iters=%d execs=%d paths=%d semExecs=%d semPaths=%d edges=%d crashes=%d hangs=%d corpus=%d",
		s.Iterations, s.Execs, s.Paths, s.SemanticExecs, s.SemanticPaths,
		s.Edges, s.UniqueCrashes, s.Hangs, s.CorpusPuzzles)
}

// adaptiveOffGolden is the serial engine's fingerprint after 30000
// executions at seed 1, per target (see TestAdaptiveOffGolden).
var adaptiveOffGolden = map[string]string{
	"libmodbus":   "iters=28927 execs=30000 paths=110 semExecs=1660 semPaths=14 edges=180 crashes=2 hangs=0 corpus=290",
	"IEC104":      "iters=28831 execs=30000 paths=67 semExecs=1758 semPaths=17 edges=79 crashes=0 hangs=0 corpus=212",
	"libiec61850": "iters=29025 execs=30000 paths=122 semExecs=1479 semPaths=8 edges=176 crashes=0 hangs=0 corpus=834",
	"lib60870":    "iters=29085 execs=30000 paths=65 semExecs=1453 semPaths=10 edges=74 crashes=3 hangs=0 corpus=377",
	"libiccp":     "iters=29323 execs=30000 paths=51 semExecs=1042 semPaths=1 edges=67 crashes=4 hangs=0 corpus=165",
	"opendnp3":    "iters=28101 execs=30000 paths=152 semExecs=2852 semPaths=36 edges=194 crashes=0 hangs=0 corpus=356",
}

// TestAdaptiveOffGolden pins the backward-compatibility half of the
// scheduler contract: with Config.Adaptive off, a campaign is bit-for-bit
// identical to the pre-scheduler engine. The libmodbus and IEC104
// fingerprints above were recorded on the commit immediately before the
// scheduler landed, the other four on the last commit whose engine still
// cloned and walked instance trees per exec (they agree with the first two
// about that engine); if this test fails, the default path's RNG stream or
// decision order changed — that is a compatibility break with every
// historical campaign, not a golden value to refresh casually.
func TestAdaptiveOffGolden(t *testing.T) {
	for target, golden := range adaptiveOffGolden {
		eng := newSerialEngine(t, target, 1, false)
		eng.Run(30000)
		if got := fingerprint(eng); got != golden {
			t.Errorf("%s adaptive-off stream diverged from the pre-scheduler engine:\n got %s\nwant %s",
				target, got, golden)
		}
	}
}

// TestStartMatchesSerialGolden pins the public path to the same golden:
// a default campaign driven through Campaign.Start (Fleet.Drive's window
// loop, hooks and event stream included) is bit-for-bit the serial
// Engine.Run the fingerprints were recorded on — observing a campaign
// never perturbs it, and a one-worker fleet performs no sync operations.
func TestStartMatchesSerialGolden(t *testing.T) {
	for target, golden := range adaptiveOffGolden {
		tgt, err := peachstar.NewTarget(target)
		if err != nil {
			t.Fatal(err)
		}
		c, err := peachstar.NewCampaign(peachstar.Options{Target: tgt, Strategy: peachstar.PeachStar, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		runCampaign(t, c, 30000)
		if got := fingerprintStats(c.Stats()); got != golden {
			t.Errorf("%s through Campaign.Start diverged from the serial engine:\n got %s\nwant %s",
				target, got, golden)
		}
	}
}

// TestAdaptiveReproducibleRealTarget: an adaptive campaign on a real
// target is reproducible for a fixed seed — serial engines only; fleet
// runs interleave merge windows nondeterministically across runs.
func TestAdaptiveReproducibleRealTarget(t *testing.T) {
	a := newSerialEngine(t, "IEC104", 1, true)
	b := newSerialEngine(t, "IEC104", 1, true)
	a.Run(50000)
	b.Run(50000)
	sa, sb := a.Stats(), b.Stats()
	if !reflect.DeepEqual(sa, sb) {
		t.Fatalf("adaptive runs diverged:\n%+v\n%+v", sa, sb)
	}
	if sa.Distills == 0 {
		t.Fatal("50000 adaptive executions ran no distillation (cadence is 32768)")
	}
	if len(sa.MutatorStats) == 0 {
		t.Fatal("adaptive run reported no mutator stats")
	}
}
