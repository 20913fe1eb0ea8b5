package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/checkpoint"
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
