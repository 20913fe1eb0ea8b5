package core

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/rng"
)

func newMutEngine(t *testing.T, strat Strategy, seed uint64) *Engine {
	t.Helper()
	e, err := New(Config{
		Models:   toyModels(),
		Target:   newToyTarget(),
		Strategy: strat,
		Seed:     seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestMutationStrategyNames(t *testing.T) {
	if StrategyMutation.String() != "MutFuzz" || StrategyMutationStar.String() != "MutFuzz*" {
		t.Fatalf("names: %s / %s", StrategyMutation, StrategyMutationStar)
	}
}

func TestMutationFindsPaths(t *testing.T) {
	e := newMutEngine(t, StrategyMutation, 1)
	e.Run(800)
	if e.Stats().Paths == 0 {
		t.Fatal("byte-level fuzzer found no paths")
	}
	if !e.Corpus().Empty() {
		t.Fatal("plain mutation strategy must not crack seeds")
	}
}

func TestMutationStarBuildsCorpus(t *testing.T) {
	e := newMutEngine(t, StrategyMutationStar, 2)
	e.Run(1500)
	if e.Corpus().Empty() {
		t.Fatal("mutation* should crack valuable seeds into puzzles")
	}
}

func TestMutationQueueSeededFromModels(t *testing.T) {
	e := newMutEngine(t, StrategyMutation, 3)
	e.Step()
	if len(e.mut.queue) < len(toyModels()) {
		t.Fatalf("queue = %d entries", len(e.mut.queue))
	}
}

func TestMutationQueueBounded(t *testing.T) {
	e := newMutEngine(t, StrategyMutation, 4)
	for i := 0; i < mutationQueueBound+64; i++ {
		e.mutationRetain([]byte{byte(i)})
	}
	if len(e.mut.queue) > mutationQueueBound {
		t.Fatalf("queue grew to %d", len(e.mut.queue))
	}
}

func TestHavocAlwaysChangesOrKeepsValid(t *testing.T) {
	r := rng.New(5)
	base := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	changed := 0
	for i := 0; i < 200; i++ {
		out := havocInto(r, nil, base)
		if !bytes.Equal(out, base) {
			changed++
		}
		if len(out) == 0 && len(base) > 0 {
			// deletion can shrink but the empty case is rare and
			// legal; just make sure the next op recovers
			continue
		}
	}
	if changed < 150 {
		t.Fatalf("havoc changed only %d/200", changed)
	}
	// base must never be modified in place.
	if !bytes.Equal(base, []byte{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Fatal("havoc mutated the base seed")
	}
}

func TestHavocEmptyBase(t *testing.T) {
	r := rng.New(6)
	out := havocInto(r, nil, nil)
	if len(out) == 0 {
		t.Fatal("havoc on empty base should synthesize bytes")
	}
}

func TestChunkAwareMutateProducesLegalPackets(t *testing.T) {
	e := newMutEngine(t, StrategyMutationStar, 7)
	e.Run(2000)
	if e.Corpus().Empty() {
		t.Skip("corpus did not populate under this seed")
	}
	base := toyModels()[0].Generate().Bytes()
	got, ok := e.chunkAwareMutate(base)
	if !ok {
		t.Skip("no donor fit this base")
	}
	// The donated packet must crack against its model: fixups repaired.
	if _, err := toyModels()[0].Crack(got); err != nil {
		t.Fatalf("chunk-aware mutation produced an illegal packet: %v", err)
	}
}

func TestMutationStarAtLeastMatchesMutation(t *testing.T) {
	// The future-work claim shape: chunk-aware donation should not hurt
	// the byte-level fuzzer on structured targets.
	var plain, star int
	for seed := uint64(0); seed < 3; seed++ {
		a := newMutEngine(t, StrategyMutation, seed)
		a.Run(2000)
		b := newMutEngine(t, StrategyMutationStar, seed)
		b.Run(2000)
		plain += a.Stats().Paths
		star += b.Stats().Paths
	}
	if float64(star) < 0.8*float64(plain) {
		t.Fatalf("mutation* paths %d collapsed versus mutation %d", star, plain)
	}
}

func TestMutationDeterministic(t *testing.T) {
	a := newMutEngine(t, StrategyMutationStar, 9)
	b := newMutEngine(t, StrategyMutationStar, 9)
	a.Run(600)
	b.Run(600)
	if !reflect.DeepEqual(a.Stats(), b.Stats()) {
		t.Fatalf("campaigns diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
}
