// Package coverage implements the AFL-style edge-coverage substrate that
// Peach* layers on top of generation-based fuzzing (paper §IV-B).
//
// The paper instruments branch points of the target protocol program with
//
//	cur_location = <COMPILE_TIME_RANDOM>;
//	shared_mem[cur_location ^ prev_location]++;
//	prev_location = cur_location >> 1;
//
// This package reproduces that scheme exactly. Targets in this repository are
// Go reimplementations of the C libraries the paper fuzzes, so instead of an
// LLVM pass the instrumentation is an explicit call, Tracer.Hit, placed at
// branch points. Block identifiers play the role of the compile-time random
// values; they are drawn from a deterministic per-site generator (see
// Region) so that runs are reproducible.
//
// # Hot path
//
// A Tracer logs the index of every counter Hit takes from zero to one,
// and that log is the one index every consumer of the map walks:
// Virgin.Consume (the engine's per-execution step: merge, count, clear,
// and the adaptive scheduler's rarity accounting, in one pass), Reset,
// PathHash (a crash's path signature, read before Consume), Snapshot,
// and the read-only MergeTracer and CountEdges that tools and the
// benchmark's stage replay use. Each costs O(lit edges), not O(map): a
// protocol execution lights about 4 edges out of 65536 (counted over
// 200 k libmodbus executions), each in a cache line of its own. Walks
// that must visit ascending indices, or each edge once, sort the log in
// place first. Bucketing is one load from a precomputed table. All of this is
// observationally identical to the byte-at-a-time definitions over the
// whole map (the test suite checks every walk against byte-level
// reference implementations), so campaign determinism is unaffected.
//
// Virgin, the campaign accumulator, logs every byte of its map that gains
// a bucket; its unions (MergeVirgin, WriteDelta) read that log's tail past
// a Cursor, so a window costs what changed since the last one, not a scan
// of 8192 words (FuzzVirginMerge holds them to the dense scans).
package coverage

import "slices"

// MapSize is the size of the shared coverage byte map. AFL and the paper's
// prototype both use a 64 KiB map, which keeps collision rates low for
// programs up to a few tens of thousands of branch points.
const MapSize = 1 << 16

// BlockID identifies an instrumented basic block. It stands in for the
// compile-time random value in the paper's instrumentation snippet.
type BlockID uint16

// Tracer records edge coverage for a single execution of a target. It is the
// shared_mem[] region plus the prev_location register from the paper, plus a
// first-hit log maintained by Hit (the sole writer of the map) that lets
// per-execution consumers visit only the edges this execution lit.
//
// A Tracer is not safe for concurrent use; each fuzzing worker owns one.
// Code must write the map only through Hit, which keeps the log, and clear
// it only through Reset or Virgin.Consume, which clear exactly the logged
// counters and empty the log.
type Tracer struct {
	buf [MapSize]byte
	// log holds, in hit order, the index of every counter Hit took from
	// 0 to 1. A counter that wraps back to 0 and is hit again is logged
	// again, so an index may repeat and may name a zero counter: every
	// walk skips a zero counter, and a walk that must see each index once
	// sorts the log and drops the repeats first (sortLog). Its backing
	// array is reused across executions.
	log  []uint16
	prev BlockID
}

// NewTracer returns a tracer with an empty coverage map.
func NewTracer() *Tracer { return &Tracer{} }

// Hit records entry into basic block cur, updating the edge counter for the
// transition prev -> cur. This is a verbatim transcription of the paper's
// instrumentation stub, plus one append to the log when the counter leaves
// zero. It must stay small enough to inline (make inline-check).
func (t *Tracer) Hit(cur BlockID) {
	i := uint16(cur) ^ uint16(t.prev)
	t.buf[i]++
	if t.buf[i] == 1 {
		t.log = append(t.log, i)
	}
	t.prev = cur >> 1
}

// Reset clears the map and the previous-location register, preparing the
// tracer for the next execution. Only logged counters are cleared, so the
// cost is the previous execution's footprint, not the map size; after
// Virgin.Consume the log is already empty.
func (t *Tracer) Reset() {
	for _, i := range t.log {
		t.buf[i] = 0
	}
	t.log = t.log[:0]
	t.prev = 0
}

// sortLog sorts the log in place and drops its repeated entries, so a walk
// visits each logged index once, ascending, and returns it. The map is not
// touched, and every non-zero counter stays logged.
func (t *Tracer) sortLog() []uint16 {
	slices.Sort(t.log)
	t.log = slices.Compact(t.log)
	return t.log
}

// PathHash returns a 64-bit FNV-1a hash of the bucketed form of the
// tracer's live map. Two executions with equal hashes exercised the same
// bucketed edge set; the crash triager uses this as a cheap
// execution-path signature. The value is identical to the byte-at-a-time
// definition over the whole map: zero counters never contribute, and the
// sorted log visits each lit edge once, in ascending order.
func (t *Tracer) PathHash() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	var h uint64 = offset
	for _, i := range t.sortLog() {
		c := t.buf[i]
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

// Snapshot copies the current coverage map. The copy is bucketed lazily by
// the consumer; raw hit counts are preserved here. Only logged counters
// are copied — every other counter is provably zero (Hit is the sole
// writer and logs every counter it takes from zero) and the fresh
// allocation is already zero-filled.
func (t *Tracer) Snapshot() []byte {
	out := make([]byte, MapSize)
	for _, i := range t.log {
		out[i] = t.buf[i]
	}
	return out
}

// CountEdges returns the number of distinct edges (non-zero counters) in
// the current map.
func (t *Tracer) CountEdges() int {
	n := 0
	for _, i := range t.sortLog() {
		if t.buf[i] != 0 {
			n++
		}
	}
	return n
}

// bucket maps a raw hit count to one of AFL's eight count buckets. Two
// executions are considered to reach the same program state when every edge
// falls in the same bucket; this is the standard reading of the paper's "new
// program execution state that has not appeared before".
func bucket(c byte) byte {
	switch {
	case c == 0:
		return 0
	case c == 1:
		return 1
	case c == 2:
		return 2
	case c == 3:
		return 4
	case c <= 7:
		return 8
	case c <= 15:
		return 16
	case c <= 31:
		return 32
	case c <= 127:
		return 64
	default:
		return 128
	}
}

// classLUT folds bucket over pairs of adjacent counters: entry i holds
// bucket(lo(i)) in its low byte and bucket(hi(i)) in its high byte, so
// byte(classLUT[c]) is bucket(c) for one counter (AFL's
// count_class_lookup16).
var classLUT [1 << 16]uint16

func init() {
	for i := range classLUT {
		classLUT[i] = uint16(bucket(byte(i))) | uint16(bucket(byte(i>>8)))<<8
	}
}

// Virgin tracks which bucketed edge states have ever been observed across a
// fuzzing campaign. It answers the valuable-seed question of §IV-B: did this
// execution light any bit that has never been lit before?
type Virgin struct {
	seen [MapSize]byte // OR of all bucketed maps observed so far
	// log is the change log: the index of every byte of seen that gained
	// a bucket (mergeEdge, or), so at most 8 × MapSize entries and never
	// compacted. gen numbers the log generations Reset starts.
	log []uint16
	gen uint32
	// Derived from seen; recomputed on restore.
	edges int // distinct edges with any bucket seen
}

// Cursor is how much of one Virgin's change log another (a merge's
// receiver, a delta's shadow) has taken in. The zero Cursor, and one from
// before either started a new log generation, reads from 0.
type Cursor struct {
	n        int
	src, dst uint32 // the two logs' generations when the cursor was taken
}

// tail returns v's log past from, as dst holds it, and the cursor at its end.
func (v *Virgin) tail(from Cursor, dst *Virgin) ([]uint16, Cursor) {
	if from.src != v.gen || from.dst != dst.gen {
		from.n = 0
	}
	return v.log[from.n:], Cursor{n: len(v.log), src: v.gen, dst: dst.gen}
}

// NewVirgin returns an empty campaign-coverage accumulator.
func NewVirgin() *Virgin { return &Virgin{} }

// MergeTracer folds one execution's map into the accumulator, visiting
// only the logged counters: Consume's merge, without its counting and
// clearing. It returns true if the execution is "valuable": it produced
// at least one (edge, bucket) pair never seen before. The tracer is read,
// not modified; a repeated log entry merges the same counter twice, which
// changes nothing. The whole-map Merge its tests hold it to lives in
// merge_test.go.
func (v *Virgin) MergeTracer(t *Tracer) bool {
	valuable := false
	for _, i := range t.log {
		if v.mergeEdge(i, byte(classLUT[t.buf[i]])) {
			valuable = true
		}
	}
	return valuable
}

// mergeEdge ORs bucket bits b into edge i, counting the edge if it was
// unseen and logging the change, and reports whether any bit was new.
// Bucket values are single bits, so "bucket b unseen at edge i" is
// exactly "b &^ seen[i] != 0"; a counter c merges as byte(classLUT[c]),
// and a zero counter has no bucket and merges nothing.
func (v *Virgin) mergeEdge(i uint16, b byte) bool {
	s := v.seen[i]
	if b&^s == 0 {
		return false
	}
	if s == 0 {
		v.edges++
	}
	v.seen[i] = s | b
	v.log = append(v.log, i)
	return true
}

// Consume is the engine's per-execution feedback step: one walk over the
// log that merges the tracer's map into v (MergeTracer), counts its edges
// (CountEdges) and clears each counter behind it (Reset), so the
// executor's next Reset finds an empty log. It returns MergeTracer's
// valuable verdict and CountEdges' figure. Whatever else must read the
// trace — PathHash for a crash — reads it first. A logged counter that is
// zero (it wrapped, or an earlier entry for it already cleared it) is
// skipped.
//
// When h is non-nil Consume sorts the log first (sortLog), and the same
// walk counts the execution into h (what a HitCounts' per-execution
// accumulation is defined as: every lit edge gains one, saturating) and
// appends each lit edge's index, ascending, to edges, which it returns;
// otherwise edges is returned as given. This is the adaptive scheduler's
// rarity accounting and its seeds' edge lists.
func (v *Virgin) Consume(t *Tracer, h *HitCounts, edges []uint16) (valuable bool, n int, _ []uint16) {
	log := t.log
	if h != nil {
		h.execs++
		log = t.sortLog()
	}
	for _, i := range log {
		c := t.buf[i]
		if c == 0 {
			continue
		}
		t.buf[i] = 0
		n++
		if h != nil {
			if p := &h.counts[i]; *p != ^uint32(0) {
				*p++
			}
			edges = append(edges, i)
		}
		if v.mergeEdge(i, byte(classLUT[c])) {
			valuable = true
		}
	}
	t.log = log[:0]
	t.prev = 0
	return valuable, n, edges
}

// MergeVirgin folds another accumulator's observed state into v, the
// campaign-level union operation behind sharded fuzzing: each worker
// accumulates coverage locally and the shard runner periodically merges the
// local accumulators into (and back out of) a shared one. It reads o's
// change log past from, the cursor the previous merge of o into v returned
// (or the zero Cursor), and returns the next one and whether o contributed
// an (edge, bucket) pair v had not seen. o is read, not modified.
func (v *Virgin) MergeVirgin(o *Virgin, from Cursor) (next Cursor, changed bool) {
	log, next := o.tail(from, v)
	for _, i := range log {
		changed = v.mergeEdge(i, o.seen[i]) || changed
	}
	return next, changed
}

// Edges returns the number of distinct edges observed so far, a coarse
// campaign-level coverage measure used by the speed-to-coverage experiment.
func (v *Virgin) Edges() int { return v.edges }

// Reset clears the accumulator and starts a new log generation.
func (v *Virgin) Reset() {
	v.seen = [MapSize]byte{}
	v.log = v.log[:0]
	v.gen++
	v.edges = 0
}
