package peachstar

import (
	"context"
	"reflect"
	"testing"
)

// TestAdaptiveSessionDeliversDistillEvents: an adaptive campaign surfaces
// the scheduler through the session API — DistillEvents arrive once the
// campaign crosses the distillation cadence, and the final stats carry the
// per-mutator accounting.
func TestAdaptiveSessionDeliversDistillEvents(t *testing.T) {
	c := newTestCampaign(t, Options{Strategy: PeachStar, Seed: 4, Adaptive: true})
	r, err := c.Start(context.Background(), RunConfig{Execs: 40000, EventBuffer: 4096})
	if err != nil {
		t.Fatal(err)
	}
	var distills []DistillEvent
	for ev := range r.Events() {
		if d, ok := ev.(DistillEvent); ok {
			distills = append(distills, d)
		}
	}
	if err := r.Wait(); err != nil {
		t.Fatalf("Wait = %v", err)
	}

	if len(distills) == 0 {
		t.Fatal("40000 adaptive executions emitted no DistillEvent (cadence is 32768)")
	}
	for _, d := range distills {
		if d.Worker != 0 {
			t.Fatalf("serial campaign reported distillation on worker %d", d.Worker)
		}
		if d.SeedsKept <= 0 || d.Edges <= 0 || d.SeedsDropped < 0 || d.PuzzlesDropped < 0 {
			t.Fatalf("malformed DistillEvent %+v", d)
		}
	}

	s := c.Stats()
	if s.Distills != len(distills) {
		t.Fatalf("Stats.Distills = %d, stream delivered %d", s.Distills, len(distills))
	}
	if len(s.MutatorStats) == 0 {
		t.Fatal("adaptive campaign has no MutatorStats")
	}
	var trials uint64
	for _, ms := range s.MutatorStats {
		trials += ms.Trials
	}
	if trials == 0 {
		t.Fatal("MutatorStats recorded no trials")
	}
}

// TestAdaptiveOffNoSchedulerSurface: a default campaign exposes none of
// the scheduler's surface — no events, no stats fields.
func TestAdaptiveOffNoSchedulerSurface(t *testing.T) {
	c := newTestCampaign(t, Options{Strategy: PeachStar, Seed: 4})
	r, err := c.Start(context.Background(), RunConfig{Execs: 5000, EventBuffer: 1024})
	if err != nil {
		t.Fatal(err)
	}
	for ev := range r.Events() {
		if _, ok := ev.(DistillEvent); ok {
			t.Fatal("non-adaptive campaign emitted a DistillEvent")
		}
	}
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.MutatorStats != nil || s.Distills != 0 {
		t.Fatalf("non-adaptive stats carry scheduler state: %+v", s)
	}
}

// TestAdaptiveStatePersistsAcrossSessions: an adaptive campaign's
// scheduler state carries into its next session — two sessions end with
// the scheduler tables of one session to the same budget.
func TestAdaptiveStatePersistsAcrossSessions(t *testing.T) {
	split := newTestCampaign(t, Options{Strategy: PeachStar, Seed: 9, Adaptive: true})
	whole := newTestCampaign(t, Options{Strategy: PeachStar, Seed: 9, Adaptive: true})
	for _, step := range []struct {
		c     *Campaign
		execs int
	}{{split, 6000}, {split, 12000}, {whole, 12000}} {
		r, err := step.c.Start(context.Background(), RunConfig{Execs: step.execs, EventBuffer: 1024})
		if err != nil {
			t.Fatal(err)
		}
		for range r.Events() {
		}
		if err := r.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	got, want := split.Stats().MutatorStats, whole.Stats().MutatorStats
	var trials uint64
	for _, ms := range got {
		trials += ms.Trials
	}
	if trials == 0 {
		t.Fatal("the adaptive scheduler ran no trials")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scheduler state did not persist across sessions:\nsplit %+v\nwhole %+v", got, want)
	}
}
