package coverage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// checkConsume consumes tr into v (and h, when non-nil) and checks the one
// walk against its definition, run on a copy of the tracer: MergeTracer
// into an equal accumulator, CountEdges, then Reset; the byte-at-a-time
// refVirgin over the raw map; and, with h, AccumulateTracer and
// AppendEdges into equal counters. On the way it holds the copy's
// PathHash, CountEdges, Snapshot and Reset to their whole-map byte
// references. v and h advance; tr ends empty.
func checkConsume(t *testing.T, label string, v *Virgin, ref *refVirgin, h *HitCounts, tr *Tracer) {
	t.Helper()
	cp := *tr
	cp.log = slices.Clone(tr.log)
	raw := cp.buf
	if got := cp.Snapshot(); !bytes.Equal(got, raw[:]) {
		t.Fatalf("%s: Snapshot differs from the raw map", label)
	}
	if got, want := cp.PathHash(), refHash(raw[:]); got != want {
		t.Fatalf("%s: PathHash = %#x, byte reference = %#x", label, got, want)
	}
	want := *v
	wantValuable := want.MergeTracer(&cp)
	wantN := cp.CountEdges()
	if refValuable := ref.merge(raw[:]); refValuable != wantValuable {
		t.Fatalf("%s: MergeTracer = %v, byte reference = %v", label, wantValuable, refValuable)
	}
	if refN := len(cp.AppendEdges(nil)); refN != wantN {
		t.Fatalf("%s: CountEdges = %d, byte reference = %d", label, wantN, refN)
	}
	var wantH HitCounts
	var wantEdges []uint16
	if h != nil {
		wantH = *h
		wantH.AccumulateTracer(&cp)
		wantEdges = cp.AppendEdges([]uint16{7})
	}
	cp.Reset()
	if cp.buf != [MapSize]byte{} || len(cp.log) != 0 || cp.prev != 0 {
		t.Fatalf("%s: the tracer is not empty after Reset", label)
	}

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
	if tr.buf != [MapSize]byte{} || len(tr.log) != 0 || tr.prev != 0 {
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

// TestConsumeLogEdgeCases: the log's corner cases against the byte
// references, with and without hit counters. A counter hit 256·k times is
// back at zero but logged k times; one hit 256·k + 1 times is non-zero and
// logged k + 1 times; and a tracer is reused after Reset and after
// Consume.
func TestConsumeLogEdgeCases(t *testing.T) {
	// hot hits edge 0 times times (Hit(0) from a zero prev register always
	// lands on edge 0) between two random traces, so the repeated entries
	// sit among others in the log.
	hot := func(tr *Tracer, times int, seed uint64) *Tracer {
		tr.prev = 0
		for k := 0; k < times; k++ {
			tr.Hit(0)
		}
		for _, b := range Blocks(fmt.Sprint("edge-cases", seed), 30) {
			tr.Hit(b | 1)
		}
		return tr
	}
	for _, adaptive := range []bool{false, true} {
		v, ref := NewVirgin(), &refVirgin{}
		var h *HitCounts
		if adaptive {
			h = NewHitCounts()
		}
		for _, times := range []int{256, 257, 512, 513} {
			label := fmt.Sprintf("adaptive=%v, edge 0 hit %d times", adaptive, times)
			tr := hot(NewTracer(), times, uint64(times))
			if logged := countOf(tr.log, 0); tr.buf[0] != byte(times) || logged != (times+255)/256 {
				t.Fatalf("%s: counter %d logged %d times", label, tr.buf[0], logged)
			}
			checkConsume(t, label, v, ref, h, tr)
			checkConsume(t, label+", reused after Consume", v, ref, h, hot(tr, times, uint64(times)+1))
			hot(tr, times, uint64(times)+2).Reset()
			checkConsume(t, label+", reused after Reset", v, ref, h, hot(tr, times, uint64(times)+3))
		}
	}
}

// countOf is how many times e occurs in log.
func countOf(log []uint16, e uint16) int {
	n := 0
	for _, x := range log {
		if x == e {
			n++
		}
	}
	return n
}

// TestConsumeAllocFree: once its log and the edge list have grown, a
// tracer's hits and the Consume that clears them allocate nothing, with
// and without hit counters.
func TestConsumeAllocFree(t *testing.T) {
	for _, adaptive := range []bool{false, true} {
		v, tr := NewVirgin(), NewTracer()
		var h *HitCounts
		if adaptive {
			h = NewHitCounts()
		}
		var edges []uint16
		exec := func() {
			for k := 0; k < 600; k++ {
				tr.Hit(BlockID(k % 200 * 331))
			}
			_, _, edges = v.Consume(tr, h, edges[:0])
		}
		exec()
		if n := testing.AllocsPerRun(100, exec); n != 0 {
			t.Fatalf("adaptive=%v: Hit + Consume allocate %.1f objects per execution", adaptive, n)
		}
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
	// One block 300 times: its edge's counter wraps past zero and is
	// logged twice.
	f.Add(bytes.Repeat([]byte{1, 1}, 300), uint8(2), false)
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
// of five hits: a libmodbus execution lights about four edges (counted
// over 200 k executions), scattered over the map.
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
