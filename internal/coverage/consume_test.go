package coverage

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// checkConsume consumes tr into v (and h, when non-nil) and checks the one
// walk against its definition, run on a copy of the tracer: MergeTracer
// into an equal accumulator, CountEdges, then Reset; the byte-at-a-time
// refVirgin over the raw map; and, with h, AccumulateTracer and
// AppendEdges into equal counters. v and h advance; tr ends empty.
func checkConsume(t *testing.T, label string, v *Virgin, ref *refVirgin, h *HitCounts, tr *Tracer) {
	t.Helper()
	cp := *tr
	want := *v
	wantValuable := want.MergeTracer(&cp)
	wantN := cp.CountEdges()
	if refValuable := ref.merge(cp.buf[:]); refValuable != wantValuable {
		t.Fatalf("%s: MergeTracer = %v, byte reference = %v", label, wantValuable, refValuable)
	}
	var wantH HitCounts
	var wantEdges []uint16
	if h != nil {
		wantH = *h
		wantH.AccumulateTracer(&cp)
		wantEdges = cp.AppendEdges([]uint16{7})
	}
	cp.Reset()

	var edges []uint16
	if h != nil {
		edges = []uint16{7}
	}
	valuable, n, edges := v.Consume(tr, h, edges)
	if valuable != wantValuable || n != wantN {
		t.Fatalf("%s: Consume = (%v, %d), MergeTracer + CountEdges = (%v, %d)", label, valuable, n, wantValuable, wantN)
	}
	if v.seen != want.seen || v.seen != ref.seen || v.Edges() != want.Edges() || v.Edges() != ref.edges {
		t.Fatalf("%s: accumulator diverged from MergeTracer / the byte reference", label)
	}
	if *tr != cp {
		t.Fatalf("%s: the tracer is not empty after Consume", label)
	}
	if h != nil && (*h != wantH || !slices.Equal(edges, wantEdges)) {
		t.Fatalf("%s: counters or edge list diverged from AccumulateTracer / AppendEdges", label)
	}
	if h == nil && edges != nil {
		t.Fatalf("%s: edge list appended without hit counters", label)
	}
}

// TestConsumeMatchesMergeCountReset: the one walk equals MergeTracer +
// CountEdges + Reset (and, with hit counters, AccumulateTracer +
// AppendEdges) over random traces, the hand-built edge maps and
// saturated counters, with and without the adaptive extras.
func TestConsumeMatchesMergeCountReset(t *testing.T) {
	for _, adaptive := range []bool{false, true} {
		v, ref := NewVirgin(), &refVirgin{}
		var h *HitCounts
		if adaptive {
			h = NewHitCounts()
		}
		for round := 0; round < 20; round++ {
			checkConsume(t, "random trace", v, ref, h, hitTracer(20+round*70, uint64(round+1)))
		}
		for _, m := range testMaps() {
			checkConsume(t, "test map", v, ref, h, tracerOf(m))
		}
		sat := hitTracer(100, 3)
		for i := 0; i < 300; i++ {
			sat.Hit(BlockID(i % 5))
		}
		checkConsume(t, "hot loop", v, ref, h, sat)
		checkConsume(t, "empty trace", v, ref, h, NewTracer())
	}
}

// FuzzVirginConsume feeds arbitrary block sequences through Consume, on an
// accumulator that has already seen a random campaign, and holds it to
// checkConsume's definitions.
func FuzzVirginConsume(f *testing.F) {
	f.Add([]byte{}, uint8(0), true)
	f.Add([]byte{0, 1, 0, 1, 0, 1}, uint8(1), false)
	f.Add(binary.LittleEndian.AppendUint64(nil, 0xFFFF0000FFFF0000), uint8(3), true)
	seed := make([]byte, 600)
	rand.New(rand.NewSource(8)).Read(seed)
	f.Add(seed, uint8(3), true)
	f.Fuzz(func(t *testing.T, blocks []byte, prior uint8, adaptive bool) {
		v := randomVirgin(rand.New(rand.NewSource(int64(prior))), int(prior%4))
		ref := &refVirgin{seen: v.seen, edges: v.edges}
		var h *HitCounts
		if adaptive {
			h = NewHitCounts()
		}
		tr := NewTracer()
		for i := 0; i+1 < len(blocks); i += 2 {
			tr.Hit(BlockID(binary.LittleEndian.Uint16(blocks[i:])))
		}
		checkConsume(t, "fuzz", v, ref, h, tr)
		// A second trace over the same accumulator and counters.
		for i := 0; i+1 < len(blocks); i += 3 {
			tr.Hit(BlockID(binary.LittleEndian.Uint16(blocks[i:])))
		}
		checkConsume(t, "fuzz, second trace", v, ref, h, tr)
	})
}

// BenchmarkConsume is the engine's per-execution coverage step on a trace
// of five hits: a libmodbus or IEC104 execution lights about four edges,
// each in a line of its own.
func BenchmarkConsume(b *testing.B) {
	v := NewVirgin()
	tr := NewTracer()
	for i := 0; i < b.N; i++ {
		state := uint64(i % 64)
		for h := 0; h < 5; h++ {
			state = state*6364136223846793005 + 1442695040888963407
			tr.Hit(BlockID(state >> 48))
		}
		v.Consume(tr, nil, nil)
	}
}

// BenchmarkMergeCountReset is what Consume replaces, on the same traces.
func BenchmarkMergeCountReset(b *testing.B) {
	v := NewVirgin()
	tr := NewTracer()
	for i := 0; i < b.N; i++ {
		state := uint64(i % 64)
		for h := 0; h < 5; h++ {
			state = state*6364136223846793005 + 1442695040888963407
			tr.Hit(BlockID(state >> 48))
		}
		v.MergeTracer(tr)
		tr.CountEdges()
		tr.Reset()
	}
}
