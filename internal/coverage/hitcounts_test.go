package coverage

import "testing"

// TestSnapshotMatchesFullCopy pins the dirty-walk Snapshot against the
// obvious reference — a full copy of the raw map — across random hit
// patterns of varying density, including the empty tracer and a tracer
// reused after Reset (the case a stale dirty index would break).
func TestSnapshotMatchesFullCopy(t *testing.T) {
	check := func(tr *Tracer, what string) {
		t.Helper()
		got := tr.Snapshot()
		want := append([]byte(nil), tr.buf[:]...)
		if len(got) != MapSize {
			t.Fatalf("%s: snapshot length %d, want %d", what, len(got), MapSize)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: snapshot[%#x] = %d, raw map has %d", what, i, got[i], want[i])
			}
		}
	}
	check(NewTracer(), "empty")
	for round := 0; round < 10; round++ {
		check(hitTracer(1+round*80, uint64(round+3)), "random")
	}
	tr := hitTracer(500, 17)
	tr.Reset()
	check(tr, "after Reset")
	tr.Hit(7)
	tr.Hit(9000)
	check(tr, "reused after Reset")
}

// TestAppendEdgesMatchesRaw: the appended edge list is exactly the set of
// non-zero map indices, in ascending order, with length CountEdges — the
// identity the scheduler relies on when it stores a valuable trace's edge
// list for rarity scoring and distillation.
func TestAppendEdgesMatchesRaw(t *testing.T) {
	for round := 0; round < 10; round++ {
		tr := hitTracer(20+round*70, uint64(round+11))
		edges := tr.AppendEdges(nil)
		if len(edges) != tr.CountEdges() {
			t.Fatalf("round %d: %d edges appended, CountEdges = %d", round, len(edges), tr.CountEdges())
		}
		for i := 1; i < len(edges); i++ {
			if edges[i-1] >= edges[i] {
				t.Fatalf("round %d: edge list not strictly ascending at %d: %v >= %v",
					round, i, edges[i-1], edges[i])
			}
		}
		inList := make(map[uint16]bool, len(edges))
		for _, e := range edges {
			if tr.buf[:][e] == 0 {
				t.Fatalf("round %d: appended edge %#x is zero in the map", round, e)
			}
			inList[e] = true
		}
		for i, c := range tr.buf[:] {
			if c != 0 && !inList[uint16(i)] {
				t.Fatalf("round %d: lit edge %#x missing from the list", round, i)
			}
		}
	}
}

// TestAppendEdgesAppends: AppendEdges extends dst in place rather than
// replacing it, so callers can reuse a scratch slice.
func TestAppendEdgesAppends(t *testing.T) {
	tr := NewTracer()
	tr.Hit(5)
	edges := tr.AppendEdges([]uint16{0xFFFF})
	if len(edges) != 2 || edges[0] != 0xFFFF || edges[1] != 5 {
		t.Fatalf("AppendEdges did not append: %v", edges)
	}
}

// TestHitCountsAccumulate: each accumulated execution adds exactly one to
// every edge it lit — once per edge regardless of the raw hit count — and
// the exec denominator tracks calls.
func TestHitCountsAccumulate(t *testing.T) {
	h := NewHitCounts()
	if h.Execs() != 0 {
		t.Fatal("fresh HitCounts has execs")
	}

	tr := NewTracer()
	tr.Hit(100) // edge 100, and repeat so the counter exceeds 1
	tr.Hit(100)
	h.AccumulateTracer(tr)
	h.AccumulateTracer(tr)
	if h.Execs() != 2 {
		t.Fatalf("execs = %d, want 2", h.Execs())
	}
	for i := 0; i < MapSize; i++ {
		want := uint32(0)
		if tr.buf[:][i] != 0 {
			want = 2 // one per execution, not per raw hit
		}
		if got := h.Count(uint16(i)); got != want {
			t.Fatalf("count[%#x] = %d, want %d", i, got, want)
		}
	}

	// A different footprint only bumps its own edges.
	tr2 := NewTracer()
	tr2.Hit(4000)
	h.AccumulateTracer(tr2)
	if h.Count(4000^0) != 1 {
		t.Fatalf("new edge count = %d, want 1", h.Count(4000))
	}
	if h.Execs() != 3 {
		t.Fatalf("execs = %d, want 3", h.Execs())
	}
}

// TestHitCountsSaturate: a counter at the uint32 maximum stays there
// instead of wrapping to zero (which would make the edge read as
// infinitely rare).
func TestHitCountsSaturate(t *testing.T) {
	h := NewHitCounts()
	tr := NewTracer()
	tr.Hit(100)
	var edge uint16
	for i, c := range tr.buf[:] {
		if c != 0 {
			edge = uint16(i)
		}
	}
	h.counts[edge] = ^uint32(0)
	h.AccumulateTracer(tr)
	if h.Count(edge) != ^uint32(0) {
		t.Fatalf("saturated counter moved to %d", h.Count(edge))
	}
}

// TestRarityScore: the 16.16 fixed-point sum, with never-counted edges
// treated as seen once so pre-sidecar edge lists stay scorable.
func TestRarityScore(t *testing.T) {
	h := NewHitCounts()
	h.counts[10] = 1
	h.counts[11] = 2
	h.counts[12] = 65536
	want := uint64(1<<16) + uint64(1<<15) + 1
	if got := h.RarityScore([]uint16{10, 11, 12}); got != want {
		t.Fatalf("score = %d, want %d", got, want)
	}
	// Edge 13 has count 0 → scored as count 1.
	if got := h.RarityScore([]uint16{13}); got != 1<<16 {
		t.Fatalf("uncounted edge score = %d, want %d", got, 1<<16)
	}
	if got := h.RarityScore(nil); got != 0 {
		t.Fatalf("empty list score = %d, want 0", got)
	}
}
