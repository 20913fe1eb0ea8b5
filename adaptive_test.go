package repro

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
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

// TestAdaptivePanel is the measurement behind keeping the adaptive
// scheduler (skipped unless PEACHSTAR_PANEL=1; about 2 min on 2 vCPUs):
// serial Peach* engines, seeds 1–20, adaptive off and on, 1 M execs each,
// edges sampled every 1 000 execs, on the six targets plus IEC104 in
// session mode. Per target and side it logs the median [IQR] of edges at
// 300 k and 1 M execs, of the k-execs each run takes to reach the goal —
// the lowest final edge count among the target's 40 runs — and of unique
// crashes. The stated rule: an effect beyond the IQR on any target keeps
// the scheduler.
//
//	PEACHSTAR_PANEL=1 go test -run TestAdaptivePanel -v -timeout 30m .
func TestAdaptivePanel(t *testing.T) {
	if os.Getenv("PEACHSTAR_PANEL") != "1" {
		t.Skip("set PEACHSTAR_PANEL=1 to run the adaptive on/off panel")
	}
	const seeds, samples, every = 20, 1000, 1000
	type run struct {
		edges   []int // edges after every `every` execs
		crashes int
	}
	type job struct {
		row, side, seed int
	}
	rows := []struct {
		name, target string
		sessions     bool
	}{
		{"opendnp3", "opendnp3", false},
		{"libiec61850", "libiec61850", false},
		{"IEC104 sessions", "IEC104", true},
		{"IEC104", "IEC104", false},
		{"libiccp", "libiccp", false},
		{"libmodbus", "libmodbus", false},
		{"lib60870", "lib60870", false},
	}
	runs := make([][2][seeds]run, len(rows))
	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				tgt, err := targets.New(rows[j.row].target)
				if err != nil {
					t.Error(err)
					continue
				}
				cfg := core.Config{
					Models:   tgt.Models(),
					Target:   tgt,
					Strategy: core.StrategyPeachStar,
					Seed:     uint64(j.seed + 1),
					Adaptive: j.side == 1,
				}
				if rows[j.row].sessions {
					cfg.Session = tgt.(targets.SessionTarget).StateModel()
				}
				eng, err := core.New(cfg)
				if err != nil {
					t.Error(err)
					continue
				}
				r := &runs[j.row][j.side][j.seed]
				for k := 1; k <= samples; k++ {
					eng.Run(k * every)
					r.edges = append(r.edges, eng.Stats().Edges)
				}
				r.crashes = eng.Stats().UniqueCrashes
			}
		}()
	}
	for row := range rows {
		for side := 0; side < 2; side++ {
			for seed := 0; seed < seeds; seed++ {
				jobs <- job{row, side, seed}
			}
		}
	}
	close(jobs)
	wg.Wait()
	if t.Failed() {
		return
	}

	// cell is "median [q1–q3]" of xs: the quartiles are the order
	// statistics at n/4 and 3n/4.
	cell := func(xs []float64) string {
		sort.Float64s(xs)
		n := len(xs)
		return fmt.Sprintf("%v [%v–%v]", (xs[(n-1)/2]+xs[n/2])/2, xs[n/4], xs[3*n/4])
	}
	var b strings.Builder
	b.WriteString("\n| Target | edges @ 300 k | edges @ 1 M | k-execs to goal | unique crashes |\n|---|---|---|---|---|\n")
	for row, rr := range runs {
		goal := -1
		for side := range rr {
			for _, r := range rr[side] {
				if last := r.edges[samples-1]; goal < 0 || last < goal {
					goal = last
				}
			}
		}
		var cols [4][2]string
		for side := range rr {
			var at300, at1M, toGoal, crashes []float64
			for _, r := range rr[side] {
				at300 = append(at300, float64(r.edges[300*1000/every-1]))
				at1M = append(at1M, float64(r.edges[samples-1]))
				k := sort.SearchInts(r.edges, goal) + 1 // edges never fall
				toGoal = append(toGoal, float64(k*every/1000))
				crashes = append(crashes, float64(r.crashes))
			}
			for c, xs := range [][]float64{at300, at1M, toGoal, crashes} {
				cols[c][side] = cell(xs)
			}
		}
		fmt.Fprintf(&b, "| %s | %s → %s | %s → %s | %s → %s | %s → %s |\n", rows[row].name,
			cols[0][0], cols[0][1], cols[1][0], cols[1][1], cols[2][0], cols[2][1], cols[3][0], cols[3][1])
	}
	t.Log(b.String())
}
