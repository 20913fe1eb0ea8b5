package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/datamodel"
)

// TestSchedulerRestoreRejectsOverWide: the scheduler's uint32 tables —
// decayed trials and hits, the recompute countdown, the weight rows — are
// read width-pinned, so a stored value too wide for its cell fails the
// restore instead of being truncated into it (and re-encoding to other
// bytes). Each case plants a marker in one cell of a one-worker adaptive
// fleet, checkpoints it, splices 2^32+5 over the marker's encoding,
// reseals and restores.
func TestSchedulerRestoreRejectsOverWide(t *testing.T) {
	const marker, digest = 0xDEADBEEF, 7
	for _, tc := range []struct {
		name string
		cell func(s *scheduler) *uint32
	}{
		{"trials", func(s *scheduler) *uint32 { return &s.trials[0][0] }},
		{"hits", func(s *scheduler) *uint32 { return &s.hits[0][0] }},
		{"recalcIn", func(s *scheduler) *uint32 { return &s.recalcIn[0] }},
		{"weights", func(s *scheduler) *uint32 {
			s.weights[0] = make([]uint32, len(s.yields))
			return &s.weights[0][0]
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := NewFleet(Config{
				Models:   toyModels(),
				Target:   newToyTarget(),
				Strategy: StrategyPeachStar,
				Seed:     1,
				Adaptive: true,
			}, ParallelConfig{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			*tc.cell(&f.workers[0].sched) = marker
			good := f.Checkpoint(digest)
			if err := f.RestoreCheckpoint(good, digest); err != nil {
				t.Fatalf("the fleet's own checkpoint does not restore: %v", err)
			}

			_, secs, err := checkpoint.Open(good)
			if err != nil {
				t.Fatal(err)
			}
			var mark, wide checkpoint.Writer
			mark.Uvarint(marker)
			wide.Uvarint(1<<32 + 5)
			body := secs[len(secs)-1].Body
			at := bytes.Index(body, mark.Data())
			if at < 0 || bytes.Count(body, mark.Data()) != 1 {
				t.Fatalf("marker found %d times in the worker section, want once", bytes.Count(body, mark.Data()))
			}
			secs[len(secs)-1].Body = append(append(append([]byte(nil), body[:at]...), wide.Data()...), body[at+mark.Len():]...)
			err = f.RestoreCheckpoint(checkpoint.Seal(digest, secs), digest)
			if err == nil || !strings.Contains(err.Error(), "overflows") {
				t.Fatalf("restore of %s = 2^32+5 returned %v, want a width overflow", tc.name, err)
			}
		})
	}
}

// TestRestoreDropsUnknownModelSeeds: a checkpoint's valuable queue for a
// model the restoring campaign lacks is read past and dropped, and every
// other model's queue restores in full.
func TestRestoreDropsUnknownModelSeeds(t *testing.T) {
	const digest = 1
	newFleet := func(models []*datamodel.Model) *Fleet {
		f, err := NewFleet(Config{
			Models:   models,
			Target:   newToyTarget(),
			Strategy: StrategyPeachStar,
			Seed:     1,
		}, ParallelConfig{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	src := newFleet(toyModels())
	src.Run(3000)
	models := toyModels()
	models[0].Name = "op9"
	dst := newFleet(models)
	if err := dst.RestoreCheckpoint(src.Checkpoint(digest), digest); err != nil {
		t.Fatal(err)
	}
	want, got := src.workers[0].valuable, dst.workers[0].valuable
	if len(want[0]) == 0 || len(got[0]) != 0 {
		t.Fatalf("renamed model holds %d seeds after restore, want 0 (the checkpoint held %d)", len(got[0]), len(want[0]))
	}
	for mi := 1; mi < len(want); mi++ {
		if len(got[mi]) != len(want[mi]) {
			t.Errorf("model %d restored %d seeds, the checkpoint held %d", mi, len(got[mi]), len(want[mi]))
		}
	}
}
