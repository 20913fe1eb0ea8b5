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

// TestRestoreRejectsValuableModelCount: the valuable queues are stored by
// model index after the model count, so every model's queue restores in
// full into a campaign with the same models, and an image taken under a
// different number of models fails the count check (a real campaign's
// model digest refuses it before that).
func TestRestoreRejectsValuableModelCount(t *testing.T) {
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
	img := src.Checkpoint(digest)
	same := newFleet(toyModels())
	if err := same.RestoreCheckpoint(img, digest); err != nil {
		t.Fatal(err)
	}
	want, got := src.workers[0].valuable, same.workers[0].valuable
	for mi := range want {
		if len(want[mi]) == 0 || len(got[mi]) != len(want[mi]) {
			t.Errorf("model %d restored %d seeds, the checkpoint held %d", mi, len(got[mi]), len(want[mi]))
		}
	}
	err := newFleet(toyModels()[:2]).RestoreCheckpoint(img, digest)
	if err == nil || !strings.Contains(err.Error(), "3 valuable models stored, 2 live") {
		t.Fatalf("restore under two of the three models = %v, want the valuable model count refused", err)
	}
}
