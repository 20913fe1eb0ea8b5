package coverage

import (
	"encoding/binary"
	"testing"
	"testing/quick"
)

func TestHitUpdatesEdgeCounter(t *testing.T) {
	tr := NewTracer()
	tr.Hit(0x1234)
	// prev starts at 0, so the first edge index is 0x1234 ^ 0.
	if got := tr.buf[:][0x1234]; got != 1 {
		t.Fatalf("edge counter = %d, want 1", got)
	}
	// prev should now be 0x1234 >> 1.
	tr.Hit(0x1234)
	idx := 0x1234 ^ (0x1234 >> 1)
	if got := tr.buf[:][idx]; got != 1 {
		t.Fatalf("second edge counter = %d, want 1", got)
	}
}

func TestHitMatchesPaperScheme(t *testing.T) {
	// Replay a block sequence and check against a direct transcription of
	// the paper's snippet.
	seq := []BlockID{10, 20, 10, 30, 30, 20}
	var want [MapSize]byte
	var prev BlockID
	for _, cur := range seq {
		want[uint16(cur)^uint16(prev)]++
		prev = cur >> 1
	}
	tr := NewTracer()
	for _, cur := range seq {
		tr.Hit(cur)
	}
	for i := range want {
		if tr.buf[:][i] != want[i] {
			t.Fatalf("map[%d] = %d, want %d", i, tr.buf[:][i], want[i])
		}
	}
}

func TestResetClearsMapAndPrev(t *testing.T) {
	tr := NewTracer()
	tr.Hit(7)
	tr.Hit(9)
	tr.Reset()
	if tr.CountEdges() != 0 {
		t.Fatalf("edges after reset = %d, want 0", tr.CountEdges())
	}
	tr.Hit(7)
	if tr.buf[:][7] != 1 {
		t.Fatal("prev register not cleared by Reset")
	}
}

func TestBucketBoundaries(t *testing.T) {
	cases := []struct{ in, want byte }{
		{0, 0}, {1, 1}, {2, 2}, {3, 4}, {4, 8}, {7, 8}, {8, 16},
		{15, 16}, {16, 32}, {31, 32}, {32, 64}, {127, 64}, {128, 128}, {255, 128},
	}
	for _, c := range cases {
		if got := bucket(c.in); got != c.want {
			t.Errorf("bucket(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestVirginMergeDetectsNewEdges(t *testing.T) {
	v := NewVirgin()
	m := make([]byte, MapSize)
	m[100] = 1
	if !v.Merge(m) {
		t.Fatal("first merge should be valuable")
	}
	if v.Merge(m) {
		t.Fatal("identical map should not be valuable twice")
	}
	if v.Edges() != 1 {
		t.Fatalf("edges = %d, want 1", v.Edges())
	}
}

func TestVirginMergeDetectsNewBuckets(t *testing.T) {
	v := NewVirgin()
	m := make([]byte, MapSize)
	m[100] = 1
	v.Merge(m)
	m[100] = 2 // different bucket, same edge
	if !v.Merge(m) {
		t.Fatal("new hit-count bucket on a known edge should be valuable")
	}
	if v.Edges() != 1 {
		t.Fatalf("edges = %d, want 1 (same edge)", v.Edges())
	}
	m[100] = 3 // bucket 4, new again
	if !v.Merge(m) {
		t.Fatal("bucket 4 should be new")
	}
	m[100] = 2 // bucket 2 already seen
	if v.Merge(m) {
		t.Fatal("bucket 2 was already recorded")
	}
}

// tracerOf loads a raw map into a tracer the way Hit would have: counters
// set, every lit index logged. The log is descending, so a walk that must
// ascend cannot rely on the order it was written in.
func tracerOf(raw []byte) *Tracer {
	tr := NewTracer()
	for i := len(raw) - 1; i >= 0; i-- {
		if raw[i] != 0 {
			tr.buf[i] = raw[i]
			tr.log = append(tr.log, uint16(i))
		}
	}
	return tr
}

func pathHash(raw []byte) uint64 { return tracerOf(raw).PathHash() }

func TestHashDistinguishesBuckets(t *testing.T) {
	a := make([]byte, MapSize)
	b := make([]byte, MapSize)
	a[9] = 1
	b[9] = 3
	if pathHash(a) == pathHash(b) {
		t.Fatal("different buckets should hash differently")
	}
	b[9] = 1
	if pathHash(a) != pathHash(b) {
		t.Fatal("equal maps should hash equally")
	}
	// Same bucket, different raw count: hashes must agree.
	b[9] = 2
	a[9] = 2
	if pathHash(a) != pathHash(b) {
		t.Fatal("same map, same hash")
	}
}

func TestHashBucketInsensitiveWithinBucket(t *testing.T) {
	a := make([]byte, MapSize)
	b := make([]byte, MapSize)
	a[42] = 4
	b[42] = 7 // both bucket 8
	if pathHash(a) != pathHash(b) {
		t.Fatal("raw counts in the same bucket must hash equally")
	}
}

func TestClassifyInPlace(t *testing.T) {
	if w := classifyWord(5 | 200<<8); byte(w) != 8 || byte(w>>8) != 128 || w>>16 != 0 {
		t.Fatalf("classifyWord gave %#x, want lanes 8,128", w)
	}
}

func TestRegionDeterminism(t *testing.T) {
	a := Blocks("modbus", 16)
	b := Blocks("modbus", 16)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("region stream not deterministic at %d", i)
		}
	}
	c := Blocks("dnp3", 16)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("distinct regions produced identical streams")
	}
}

func TestBlockMatchesBlocks(t *testing.T) {
	ids := Blocks("x", 8)
	for i, want := range ids {
		if got := Block("x", i); got != want {
			t.Fatalf("Block(x,%d) = %d, want %d", i, got, want)
		}
	}
}

func TestRegionSpread(t *testing.T) {
	// IDs from one region should not collide excessively in a 16-bit space.
	ids := Blocks("spread-test", 512)
	seen := map[BlockID]bool{}
	dups := 0
	for _, id := range ids {
		if seen[id] {
			dups++
		}
		seen[id] = true
	}
	if dups > 8 { // birthday bound for 512 in 65536 is ~2
		t.Fatalf("too many duplicate block IDs: %d", dups)
	}
}

func TestVirginMergeProperty(t *testing.T) {
	// Property: after Merge(m) returns, merging m again finds nothing new.
	f := func(idxs []uint16, vals []byte) bool {
		v := NewVirgin()
		m := make([]byte, MapSize)
		for i, ix := range idxs {
			if i < len(vals) {
				m[ix] = vals[i]
			}
		}
		v.Merge(m)
		return !v.Merge(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeMonotonicEdges(t *testing.T) {
	// Property: Edges never decreases across merges.
	f := func(seqs [][]uint16) bool {
		v := NewVirgin()
		prev := 0
		for _, s := range seqs {
			m := make([]byte, MapSize)
			for _, ix := range s {
				m[ix]++
			}
			v.Merge(m)
			if v.Edges() < prev {
				return false
			}
			prev = v.Edges()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeVirginUnion(t *testing.T) {
	a, b := NewVirgin(), NewVirgin()
	raw1 := make([]byte, MapSize)
	raw1[10] = 1
	raw1[20] = 3
	raw2 := make([]byte, MapSize)
	raw2[20] = 3
	raw2[30] = 1
	a.Merge(raw1)
	b.Merge(raw2)

	if !a.MergeVirgin(b) {
		t.Fatal("merging b's novel edge 30 should report change")
	}
	if got := a.Edges(); got != 3 {
		t.Fatalf("edges after union = %d, want 3", got)
	}
	if a.MergeVirgin(b) {
		t.Fatal("second merge must be a no-op")
	}
	// a now subsumes both executions.
	if a.Merge(raw1) || a.Merge(raw2) {
		t.Fatal("union should cover both source maps")
	}
	// b is untouched.
	if got := b.Edges(); got != 2 {
		t.Fatalf("source edges = %d, want 2 (must not be modified)", got)
	}
}

func TestMergeVirginBucketGranularity(t *testing.T) {
	a, b := NewVirgin(), NewVirgin()
	raw := make([]byte, MapSize)
	raw[5] = 1 // bucket 1
	a.Merge(raw)
	raw[5] = 9 // bucket 16: same edge, new bucket
	b.Merge(raw)
	if !a.MergeVirgin(b) {
		t.Fatal("new bucket on a known edge should report change")
	}
	if got := a.Edges(); got != 1 {
		t.Fatalf("edges = %d, want 1 (same edge, richer buckets)", got)
	}
}

// --- log walks vs byte-level reference ---
//
// The hot path visits only the tracer's logged counters and buckets
// through the lookup table. These tests pin those walks (and the
// word-at-a-time Merge) to byte-at-a-time reference transcriptions of the
// original definitions over the whole map, over maps exercising word
// boundaries, dense regions, and the full counter range. Bit-for-bit
// equality here is what guarantees campaign determinism.

// refVirgin is the byte-at-a-time Merge/edge accounting.
type refVirgin struct {
	seen  [MapSize]byte
	edges int
}

func (v *refVirgin) merge(raw []byte) bool {
	valuable := false
	for i, c := range raw {
		if c == 0 {
			continue
		}
		b := bucket(c)
		if v.seen[i]&b == 0 {
			if v.seen[i] == 0 {
				v.edges++
			}
			v.seen[i] |= b
			valuable = true
		}
	}
	return valuable
}

func refHash(raw []byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	var h uint64 = offset
	for i, c := range raw {
		if c == 0 {
			continue
		}
		h ^= uint64(i)
		h *= prime
		h ^= uint64(bucket(c))
		h *= prime
	}
	return h
}

// testMaps builds a set of coverage maps that stress the word scan: empty,
// single edges at word-boundary offsets, dense clusters, every counter
// value, and pseudo-random sparse maps.
func testMaps() [][]byte {
	var maps [][]byte
	add := func(fill func(m []byte)) {
		m := make([]byte, MapSize)
		fill(m)
		maps = append(maps, m)
	}
	add(func(m []byte) {})
	for _, off := range []int{0, 1, 7, 8, 9, 63, 64, MapSize - 8, MapSize - 1} {
		off := off
		add(func(m []byte) { m[off] = 1 })
	}
	add(func(m []byte) {
		for i := 0; i < 256; i++ {
			m[i] = byte(i) // dense run with every counter value
		}
	})
	add(func(m []byte) {
		for i := range m {
			m[i] = byte(i * 7) // fully dense
		}
	})
	state := uint64(0x9E3779B97F4A7C15)
	add(func(m []byte) {
		for i := 0; i < 300; i++ { // sparse pseudo-random (the realistic case)
			state = state*6364136223846793005 + 1442695040888963407
			m[uint16(state>>33)] = byte(state>>17) | 1
		}
	})
	return maps
}

func TestMergeMatchesByteReference(t *testing.T) {
	v, ref := NewVirgin(), &refVirgin{}
	for mi, m := range testMaps() {
		if got, want := v.Merge(m), ref.merge(m); got != want {
			t.Fatalf("map %d: Merge = %v, reference = %v", mi, got, want)
		}
		if v.Edges() != ref.edges {
			t.Fatalf("map %d: edges = %d, reference = %d", mi, v.Edges(), ref.edges)
		}
		if v.seen != ref.seen {
			t.Fatalf("map %d: accumulator state diverged from reference", mi)
		}
	}
}

func TestHashMatchesByteReference(t *testing.T) {
	for mi, m := range testMaps() {
		if got, want := tracerOf(m).PathHash(), refHash(m); got != want {
			t.Fatalf("map %d: Hash = %#x, reference = %#x", mi, got, want)
		}
	}
}

func TestClassifyMatchesBucket(t *testing.T) {
	for mi, m := range testMaps() {
		for i := 0; i < len(m); i += 8 {
			w := classifyWord(binary.LittleEndian.Uint64(m[i : i+8]))
			for b := 0; b < 8; b++ {
				if got, want := byte(w>>(8*b)), bucket(m[i+b]); got != want {
					t.Fatalf("map %d: classified[%d] = %d, want %d", mi, i+b, got, want)
				}
			}
		}
	}
}

func TestCountEdgesMatchesByteReference(t *testing.T) {
	tr := NewTracer()
	state := uint64(1)
	for i := 0; i < 500; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		tr.Hit(BlockID(state >> 48))
	}
	want := 0
	for _, c := range tr.buf[:] {
		if c != 0 {
			want++
		}
	}
	if got := tr.CountEdges(); got != want {
		t.Fatalf("CountEdges = %d, want %d", got, want)
	}
}

func TestClassLUTMatchesBucketPairs(t *testing.T) {
	for i := 0; i < 1<<16; i += 257 { // stride covers all byte pairs' classes
		lo, hi := byte(i), byte(i>>8)
		want := uint16(bucket(lo)) | uint16(bucket(hi))<<8
		if classLUT[i] != want {
			t.Fatalf("classLUT[%#x] = %#x, want %#x", i, classLUT[i], want)
		}
	}
}

// hitTracer replays a pseudo-random block sequence, the way real targets
// populate a tracer.
func hitTracer(n int, seed uint64) *Tracer {
	tr := NewTracer()
	state := seed
	for i := 0; i < n; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		tr.Hit(BlockID(state >> 48))
	}
	return tr
}

func TestMergeTracerMatchesMergeRaw(t *testing.T) {
	a, b := NewVirgin(), NewVirgin()
	for round := 0; round < 10; round++ {
		tr := hitTracer(50+round*40, uint64(round+1))
		if got, want := a.MergeTracer(tr), b.Merge(tr.buf[:]); got != want {
			t.Fatalf("round %d: MergeTracer = %v, Merge = %v", round, got, want)
		}
		if a.Edges() != b.Edges() {
			t.Fatalf("round %d: edges %d vs %d", round, a.Edges(), b.Edges())
		}
		if a.seen != b.seen {
			t.Fatalf("round %d: accumulator state diverged", round)
		}
	}
}

func TestPathHashMatchesHashRaw(t *testing.T) {
	for round := 0; round < 10; round++ {
		tr := hitTracer(30+round*60, uint64(round+7))
		if got, want := tr.PathHash(), refHash(tr.buf[:]); got != want {
			t.Fatalf("round %d: PathHash = %#x, reference = %#x", round, got, want)
		}
	}
}

func TestSparseResetClearsEverything(t *testing.T) {
	tr := hitTracer(400, 99)
	tr.Reset()
	for i, c := range tr.buf[:] {
		if c != 0 {
			t.Fatalf("map[%d] = %d after Reset", i, c)
		}
	}
	if len(tr.log) != 0 {
		t.Fatal("log not emptied by Reset")
	}
	if tr.PathHash() != refHash(tr.buf[:]) {
		t.Fatal("empty tracer hash mismatch")
	}
	// The tracer must be fully reusable after a reset.
	tr.Hit(7)
	if tr.buf[:][7] != 1 || tr.CountEdges() != 1 {
		t.Fatal("tracer unusable after Reset")
	}
}

// sparseMap builds a realistic ~300-edge map for the scan benchmarks.
func sparseMap() []byte {
	m := make([]byte, MapSize)
	state := uint64(42)
	for i := 0; i < 300; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		m[uint16(state>>33)] = byte(state>>17) | 1
	}
	return m
}

func BenchmarkMergeSparse(b *testing.B) {
	m := sparseMap()
	v := NewVirgin()
	v.Merge(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Merge(m)
	}
}

func BenchmarkHashSparse(b *testing.B) {
	tr := tracerOf(sparseMap())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.PathHash()
	}
}

func BenchmarkMergeSparseByteReference(b *testing.B) {
	m := sparseMap()
	v := &refVirgin{}
	v.merge(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.merge(m)
	}
}

func BenchmarkHashSparseByteReference(b *testing.B) {
	m := sparseMap()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refHash(m)
	}
}
