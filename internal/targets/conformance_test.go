package targets_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/datamodel"
	"repro/internal/executor"
	"repro/internal/rng"
	"repro/internal/targets"
)

// TestConformanceAllTargets is the cross-protocol contract every registered
// target must honor: it registers under its paper name, exposes a
// non-empty, validating model set, accepts the default generated packet of
// every model without crashing, and — the determinism guard behind the
// parallel runner — produces identical campaign stats for a fixed seed, in
// serial and in a single-worker fleet.
func TestConformanceAllTargets(t *testing.T) {
	cases := []struct {
		name   string // registry name (the paper's project spelling)
		models int    // minimum expected packet types
	}{
		{"libmodbus", 2},
		{"opendnp3", 1},
		{"IEC104", 1},
		{"libiec61850", 1},
		{"libiccp", 1},
		{"lib60870", 1},
	}
	if got, want := len(targets.Names()), len(cases); got != want {
		t.Fatalf("registry has %d targets, conformance table covers %d", got, want)
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			tgt, err := targets.New(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			if got := tgt.Name(); got != tc.name {
				t.Fatalf("Name() = %q, want registry name %q", got, tc.name)
			}
			models := tgt.Models()
			if len(models) < tc.models {
				t.Fatalf("only %d models, want >= %d", len(models), tc.models)
			}
			for _, m := range models {
				if err := m.Validate(); err != nil {
					t.Fatalf("model %s invalid: %v", m.Name, err)
				}
			}

			// Every model's fixed-up default instance must be a packet
			// the server processes without faulting.
			runner := executor.NewInProc(tgt)
			for _, m := range models {
				inst := m.Generate()
				m.ApplyFixups(inst)
				pkt := inst.Bytes()
				if res, _ := runner.Run(pkt); res.Outcome == executor.Crash {
					t.Fatalf("default %s packet crashes the fresh server: %v (pkt %x)",
						m.Name, res.Fault, pkt)
				}
			}

			// Valid randomly generated packets are likewise accepted by a
			// fresh instance (statefulness may reject later ones; the
			// first must parse).
			fresh, _ := targets.New(tc.name)
			runner = executor.NewInProc(fresh)
			r := rng.New(99)
			m := models[0]
			inst := m.GenerateRandomFlat(new(datamodel.Flat), nil, r)
			m.ApplyFixups(inst)
			if res, _ := runner.Run(inst.Bytes()); res.Outcome == executor.Crash {
				t.Fatalf("random valid %s packet crashes the fresh server: %v", m.Name, res.Fault)
			}

			// Determinism guard: two campaigns with equal seeds produce
			// identical stats, and a one-worker fleet matches them both.
			statsFor := func(parallel bool) core.Stats {
				tgt, err := targets.New(tc.name)
				if err != nil {
					t.Fatal(err)
				}
				cfg := core.Config{
					Models:   tgt.Models(),
					Target:   tgt,
					Strategy: core.StrategyPeachStar,
					Seed:     7,
				}
				if parallel {
					f, err := core.NewFleet(cfg, core.ParallelConfig{Workers: 1})
					if err != nil {
						t.Fatal(err)
					}
					f.Run(2000)
					return f.Stats()
				}
				eng, err := core.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				eng.Run(2000)
				return eng.Stats()
			}
			a, b, c := statsFor(false), statsFor(false), statsFor(true)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("campaign not deterministic under fixed seed:\n  %+v\n  %+v", a, b)
			}
			if !reflect.DeepEqual(a, c) {
				t.Fatalf("one-worker fleet diverges from serial campaign:\n  serial %+v\n  fleet  %+v", a, c)
			}
		})
	}
}
