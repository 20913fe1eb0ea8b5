// Package repro's top-level benchmarks regenerate every table and figure of
// the paper's evaluation (§V) as testing.B benchmarks. Each benchmark
// reports custom metrics alongside ns/op:
//
//   - paths_peach / paths_star: mean final paths covered (Fig. 4 y-axis)
//   - increase_pct: Peach*'s final path gain (§V-B, 8.35%-36.84%)
//   - speedup_x: speed to Peach's final coverage level (§V-B, 1.2X-25X)
//   - vulns: unique vulnerabilities found (Table I)
//
// Budgets here are sized for bench runs; cmd/benchfig4 and cmd/benchtable1
// run the full-size defaults.
package repro

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/targets"

	_ "repro/internal/targets/cs101"
	_ "repro/internal/targets/dnp3"
	_ "repro/internal/targets/iccp"
	_ "repro/internal/targets/iec104"
	_ "repro/internal/targets/iec61850"
	_ "repro/internal/targets/modbus"
)

// benchCfg is the per-iteration experiment configuration used by the
// figure benchmarks.
var benchCfg = bench.Config{ExecBudget: 6000, Reps: 2, Checkpoints: 10, Seed: 1}

// benchProject runs one Fig. 4 panel per b.N iteration and reports the
// curve endpoints as metrics.
func benchProject(b *testing.B, project string) {
	b.Helper()
	var peach, star, inc, speed float64
	for i := 0; i < b.N; i++ {
		cfg := benchCfg
		cfg.Seed = benchCfg.Seed + uint64(i)
		r, err := bench.RunProject(project, cfg)
		if err != nil {
			b.Fatal(err)
		}
		peach += r.Peach.Final()
		star += r.Star.Final()
		inc += r.IncreasePct
		speed += r.Speedup
	}
	n := float64(b.N)
	b.ReportMetric(peach/n, "paths_peach")
	b.ReportMetric(star/n, "paths_star")
	b.ReportMetric(inc/n, "increase_pct")
	b.ReportMetric(speed/n, "speedup_x")
}

// Fig. 4(a): libmodbus.
func BenchmarkFig4Libmodbus(b *testing.B) { benchProject(b, "libmodbus") }

// Fig. 4(b): IEC104.
func BenchmarkFig4IEC104(b *testing.B) { benchProject(b, "IEC104") }

// Fig. 4(c): libiec61850.
func BenchmarkFig4Libiec61850(b *testing.B) { benchProject(b, "libiec61850") }

// Fig. 4(d): lib60870.
func BenchmarkFig4Lib60870(b *testing.B) { benchProject(b, "lib60870") }

// Fig. 4(e): libiccp.
func BenchmarkFig4Libiccp(b *testing.B) { benchProject(b, "libiccp") }

// Fig. 4(f): opendnp3.
func BenchmarkFig4Opendnp3(b *testing.B) { benchProject(b, "opendnp3") }

// BenchmarkSpeedup aggregates the §V-B headline numbers across all six
// projects (average final increase and speed to equal coverage).
func BenchmarkSpeedup(b *testing.B) {
	var inc, speed float64
	runs := 0
	for i := 0; i < b.N; i++ {
		for _, p := range bench.Projects() {
			cfg := benchCfg
			cfg.Seed = benchCfg.Seed + uint64(i)
			r, err := bench.RunProject(p, cfg)
			if err != nil {
				b.Fatal(err)
			}
			inc += r.IncreasePct
			speed += r.Speedup
			runs++
		}
	}
	b.ReportMetric(inc/float64(runs), "avg_increase_pct")
	b.ReportMetric(speed/float64(runs), "avg_speedup_x")
}

// BenchmarkTable1 runs the vulnerability hunt on the three projects that
// appear in Table I and reports the unique-fault total (paper: 9).
func BenchmarkTable1(b *testing.B) {
	var total float64
	for i := 0; i < b.N; i++ {
		for _, p := range []string{"libmodbus", "lib60870", "libiccp"} {
			row, err := bench.HuntVulnerabilities(p, 20000, 2, 1+uint64(i))
			if err != nil {
				b.Fatal(err)
			}
			total += float64(row.Total)
		}
	}
	b.ReportMetric(total/float64(b.N), "vulns")
}

// benchAblation measures a Peach* configuration variant on lib60870 (the
// target where the full configuration shows the clearest gains).
func benchAblation(b *testing.B, mutate func(*core.Config)) {
	b.Helper()
	var paths float64
	for i := 0; i < b.N; i++ {
		tgt, err := targets.New("lib60870")
		if err != nil {
			b.Fatal(err)
		}
		cfg := core.Config{
			Models:   tgt.Models(),
			Target:   tgt,
			Strategy: core.StrategyPeachStar,
			Seed:     1 + uint64(i),
		}
		mutate(&cfg)
		eng, err := core.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		eng.Run(6000)
		paths += float64(eng.Stats().Paths)
	}
	b.ReportMetric(paths/float64(b.N), "paths_star")
}

// BenchmarkAblationFull is the reference Peach* configuration.
func BenchmarkAblationFull(b *testing.B) {
	benchAblation(b, func(*core.Config) {})
}

// BenchmarkAblationNoFixup removes the File Fixup pass from semantic
// generation (§IV-D argues validity is lost).
func BenchmarkAblationNoFixup(b *testing.B) {
	benchAblation(b, func(c *core.Config) { c.DisableFixup = true })
}

// BenchmarkAblationNoCracker removes packet cracking entirely; Peach*
// degenerates to the baseline loop.
func BenchmarkAblationNoCracker(b *testing.B) {
	benchAblation(b, func(c *core.Config) { c.DisableCracker = true })
}

// BenchmarkAblationNoCrossModel restricts donors to same-model puzzles,
// suppressing the cross-opcode donation of §IV-D.
func BenchmarkAblationNoCrossModel(b *testing.B) {
	benchAblation(b, func(c *core.Config) { c.DisableCrossModel = true })
}

// BenchmarkAblationCorpusCap sweeps the per-signature corpus bound
// (core.Config.CorpusPerSig).
func BenchmarkAblationCorpusCap8(b *testing.B) {
	benchAblation(b, func(c *core.Config) { c.CorpusPerSig = 8 })
}

func BenchmarkAblationCorpusCap256(b *testing.B) {
	benchAblation(b, func(c *core.Config) { c.CorpusPerSig = 256 })
}

// BenchmarkExtensionMutation compares the §VII future-work extension — the
// byte-level fuzzer with and without coverage-guided packet crack — on
// lib60870, reporting both path counts.
func BenchmarkExtensionMutation(b *testing.B) {
	var plain, star float64
	for i := 0; i < b.N; i++ {
		for _, strat := range []core.Strategy{core.StrategyMutation, core.StrategyMutationStar} {
			tgt, err := targets.New("lib60870")
			if err != nil {
				b.Fatal(err)
			}
			eng, err := core.New(core.Config{
				Models:   tgt.Models(),
				Target:   tgt,
				Strategy: strat,
				Seed:     1 + uint64(i),
			})
			if err != nil {
				b.Fatal(err)
			}
			eng.Run(6000)
			if strat == core.StrategyMutation {
				plain += float64(eng.Stats().Paths)
			} else {
				star += float64(eng.Stats().Paths)
			}
		}
	}
	b.ReportMetric(plain/float64(b.N), "paths_mutfuzz")
	b.ReportMetric(star/float64(b.N), "paths_mutfuzz_star")
}

// BenchmarkEngineThroughput measures raw executions per second of the full
// Peach* loop on the largest target — the fuzzing-speed denominator behind
// every scaled budget in this reproduction.
func BenchmarkEngineThroughput(b *testing.B) {
	tgt, err := targets.New("libiec61850")
	if err != nil {
		b.Fatal(err)
	}
	eng, err := core.New(core.Config{
		Models:   tgt.Models(),
		Target:   tgt,
		Strategy: core.StrategyPeachStar,
		Seed:     1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	eng.Run(b.N)
}
