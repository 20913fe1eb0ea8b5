package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/executor"
	"repro/internal/targets"

	_ "repro/internal/targets/modbus"
)

// TestExecutorInProcGolden pins the executor-seam half of the execution
// backend contract: an explicit InProc executor attached with
// Engine.SwapExecutor — the seam a session attaches its backend through —
// is bit-for-bit identical to the default path (Config.Target alone); the
// refactor that introduced the seam moved the call, not the behavior. The
// golden string is the same one TestAdaptiveOffGolden pins for the
// pre-scheduler engine.
func TestExecutorInProcGolden(t *testing.T) {
	const golden = "iters=28927 execs=30000 paths=110 semExecs=1660 semPaths=14 edges=180 crashes=2 hangs=0 corpus=290"
	tgt, err := targets.New("libmodbus")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(core.Config{
		Models:   tgt.Models(),
		Target:   tgt,
		Strategy: core.StrategyPeachStar,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.SwapExecutor(executor.NewInProc(tgt))
	eng.Run(30000)
	if got := fingerprint(eng); got != golden {
		t.Errorf("explicit InProc executor diverged from the default in-process path:\n got %s\nwant %s", got, golden)
	}
}
