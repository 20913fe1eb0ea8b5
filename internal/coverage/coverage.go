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
// A Tracer keeps a dirty index of the lines Hit touched, and every
// consumer of its map walks only those lines: Virgin.Consume (the engine's
// per-execution step: merge, count, clear, and the adaptive scheduler's
// rarity accounting, in one pass), Reset, PathHash (a crash's path
// signature, read before Consume), Snapshot, and the read-only
// MergeTracer and CountEdges that tools and the benchmark's stage replay
// use. Within a line they view the map as 64-bit words and skip zero words
// outright — the maps are sparse (a protocol execution lights a few
// hundred edges out of 65536). Bucketing goes through a precomputed
// 16-bit lookup table, AFL's count_class_lookup16 trick, classifying two
// counters per table load. All of this is observationally identical to
// the byte-at-a-time definitions (the test suite checks the word
// implementations against byte-level reference implementations), so
// campaign determinism is unaffected.
package coverage

import (
	"encoding/binary"
	"math/bits"
)

// MapSize is the size of the shared coverage byte map. AFL and the paper's
// prototype both use a 64 KiB map, which keeps collision rates low for
// programs up to a few tens of thousands of branch points.
const MapSize = 1 << 16

// BlockID identifies an instrumented basic block. It stands in for the
// compile-time random value in the paper's instrumentation snippet.
type BlockID uint16

// dirtyLine is the granularity of the tracer's dirty index: one bit per
// 64-byte cache line of the map. A typical protocol execution lights a few
// hundred edges, touching well under 1/10th of the map's 1024 lines, so
// consumers that walk the dirty index (Consume, PathHash, Reset and the
// rest) skip the overwhelmingly zero remainder without loading it at all.
const (
	dirtyShift = 6                          // log2 of the line size
	dirtyWords = MapSize >> dirtyShift / 64 // 64 lines tracked per uint64
)

// Tracer records edge coverage for a single execution of a target. It is the
// shared_mem[] region plus the prev_location register from the paper, plus a
// dirty-line index maintained by Hit (the sole writer of the map) that lets
// per-execution consumers scan only the lines this execution touched.
//
// A Tracer is not safe for concurrent use; each fuzzing worker owns one.
// Code must write the map only through Hit, which keeps the dirty index,
// and clear it only through Reset or Virgin.Consume, which clear exactly
// the dirty lines and their bits.
type Tracer struct {
	buf   [MapSize]byte
	dirty [dirtyWords]uint64
	prev  BlockID
}

// NewTracer returns a tracer with an empty coverage map.
func NewTracer() *Tracer { return &Tracer{} }

// Hit records entry into basic block cur, updating the edge counter for the
// transition prev -> cur. This is a verbatim transcription of the paper's
// instrumentation stub, plus one OR to mark the touched line dirty.
func (t *Tracer) Hit(cur BlockID) {
	i := uint16(cur) ^ uint16(t.prev)
	t.buf[i]++
	t.dirty[i>>(dirtyShift+6)] |= 1 << ((i >> dirtyShift) & 63)
	t.prev = cur >> 1
}

// Reset clears the map and the previous-location register, preparing the
// tracer for the next execution. Only dirty lines are cleared, so the cost
// is proportional to the previous execution's footprint, not the map size.
func (t *Tracer) Reset() {
	for wi := range t.dirty {
		w := t.dirty[wi]
		if w == 0 {
			continue
		}
		for ; w != 0; w &= w - 1 {
			line := wi<<(dirtyShift+6) + bits.TrailingZeros64(w)<<dirtyShift
			b := t.buf[line : line+(1<<dirtyShift)]
			for i := range b {
				b[i] = 0
			}
		}
		t.dirty[wi] = 0
	}
	t.prev = 0
}

// PathHash returns a 64-bit FNV-1a hash of the bucketed form of the
// tracer's live map, walking only dirty lines. Two executions with equal
// hashes exercised the same bucketed edge set; the crash triager uses this
// as a cheap execution-path signature. The value is identical to the
// byte-at-a-time definition over the whole map: zero bytes never contribute, and
// dirty lines are visited in ascending order.
func (t *Tracer) PathHash() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	var h uint64 = offset
	for wi, w := range t.dirty {
		for ; w != 0; w &= w - 1 {
			base := wi<<(dirtyShift+6) + bits.TrailingZeros64(w)<<dirtyShift
			for i := base; i < base+(1<<dirtyShift); i += 8 {
				lw := binary.LittleEndian.Uint64(t.buf[i : i+8])
				if lw == 0 {
					continue
				}
				for b := 0; b < 64; b += 8 {
					c := byte(lw >> b)
					if c == 0 {
						continue
					}
					h ^= uint64(i + b/8)
					h *= prime
					h ^= uint64(bucket(c))
					h *= prime
				}
			}
		}
	}
	return h
}

// Snapshot copies the current coverage map. The copy is bucketed lazily by
// the consumer; raw hit counts are preserved here. Only dirty lines are
// copied — the untouched remainder of the map is provably zero (Hit is the
// sole writer and marks every line it touches; Reset and Consume clear
// exactly the dirty lines) and the fresh allocation is already
// zero-filled — so the copy cost is proportional to the execution's
// footprint, not the map size, identically to CountEdges/MergeTracer.
func (t *Tracer) Snapshot() []byte {
	out := make([]byte, MapSize)
	for wi, w := range t.dirty {
		for ; w != 0; w &= w - 1 {
			line := wi<<(dirtyShift+6) + bits.TrailingZeros64(w)<<dirtyShift
			copy(out[line:line+(1<<dirtyShift)], t.buf[line:line+(1<<dirtyShift)])
		}
	}
	return out
}

// CountEdges returns the number of distinct edges (non-zero bytes) in the
// current map, walking only dirty lines.
func (t *Tracer) CountEdges() int {
	n := 0
	for wi, w := range t.dirty {
		for ; w != 0; w &= w - 1 {
			base := wi<<(dirtyShift+6) + bits.TrailingZeros64(w)<<dirtyShift
			for i := base; i < base+(1<<dirtyShift); i += 8 {
				lw := binary.LittleEndian.Uint64(t.buf[i : i+8])
				for ; lw != 0; lw >>= 8 {
					if byte(lw) != 0 {
						n++
					}
				}
			}
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
// bucket(lo(i)) in its low byte and bucket(hi(i)) in its high byte. One
// 128 KiB table classifies two map bytes per load (AFL's
// count_class_lookup16).
var classLUT [1 << 16]uint16

func init() {
	for i := range classLUT {
		classLUT[i] = uint16(bucket(byte(i))) | uint16(bucket(byte(i>>8)))<<8
	}
}

// classifyWord buckets all eight counters of a map word at once through
// the 16-bit LUT, four table loads per word; pinned to bucket() by
// TestClassifyWordVariantsMatchBucket, measured end to end by cmd/bench's
// coverage.merge_ns.
func classifyWord(w uint64) uint64 {
	return uint64(classLUT[uint16(w)]) |
		uint64(classLUT[uint16(w>>16)])<<16 |
		uint64(classLUT[uint16(w>>32)])<<32 |
		uint64(classLUT[uint16(w>>48)])<<48
}

// Virgin tracks which bucketed edge states have ever been observed across a
// fuzzing campaign. It answers the valuable-seed question of §IV-B: did this
// execution light any bit that has never been lit before?
type Virgin struct {
	seen [MapSize]byte // OR of all bucketed maps observed so far
	// Derived from seen; recomputed on restore.
	edges int // distinct edges with any bucket seen
}

// NewVirgin returns an empty campaign-coverage accumulator.
func NewVirgin() *Virgin { return &Virgin{} }

// MergeTracer folds one execution's map into the accumulator, walking only
// the lines the execution touched: Consume's merge, without its counting
// and clearing. It returns true if the execution is "valuable": it
// produced at least one (edge, bucket) pair never seen before. The tracer
// is read, not modified.
//
// Bucket values are single bits, so "bucket b unseen at edge i" is exactly
// "b &^ seen[i] != 0", which vectorizes over eight edges per word; only
// words carrying novelty (rare in steady state) fall back to per-byte work
// for the edge counter. The whole-map Merge its tests hold it to lives in
// merge_test.go.
func (v *Virgin) MergeTracer(t *Tracer) bool {
	valuable := false
	seen := v.seen[:]
	for wi, w := range t.dirty {
		for ; w != 0; w &= w - 1 {
			base := wi<<(dirtyShift+6) + bits.TrailingZeros64(w)<<dirtyShift
			for i := base; i < base+(1<<dirtyShift); i += 8 {
				lw := binary.LittleEndian.Uint64(t.buf[i : i+8])
				if lw == 0 {
					continue
				}
				sw := binary.LittleEndian.Uint64(seen[i : i+8])
				novel := classifyWord(lw) &^ sw
				if novel == 0 {
					continue
				}
				valuable = true
				for b := 0; b < 64; b += 8 {
					if byte(sw>>b) == 0 && byte(novel>>b) != 0 {
						v.edges++
					}
				}
				binary.LittleEndian.PutUint64(seen[i:i+8], sw|novel)
			}
		}
	}
	return valuable
}

// Consume is the engine's per-execution feedback step: one walk over the
// lines the execution dirtied that merges the tracer's map into v
// (MergeTracer), counts its edges (CountEdges) and clears each line
// behind it (Reset), so the executor's next Reset finds nothing to clear.
// It returns MergeTracer's valuable verdict and CountEdges' figure.
// Whatever else must read the trace — PathHash for a crash — reads it
// first.
//
// When h is non-nil the same walk counts the execution into h (what a
// HitCounts' per-execution accumulation is defined as: every lit edge
// gains one, saturating) and appends each lit edge's index, ascending, to
// edges, which it returns; otherwise edges is returned as given. This is
// the adaptive scheduler's rarity accounting and its seeds' edge lists.
func (v *Virgin) Consume(t *Tracer, h *HitCounts, edges []uint16) (valuable bool, n int, _ []uint16) {
	const lo7, hi = 0x7F7F7F7F7F7F7F7F, 0x8080808080808080
	seen := v.seen[:]
	if h != nil {
		h.execs++
	}
	for wi, w := range t.dirty {
		if w == 0 {
			continue
		}
		for ; w != 0; w &= w - 1 {
			base := wi<<(dirtyShift+6) + bits.TrailingZeros64(w)<<dirtyShift
			for i := base; i < base+(1<<dirtyShift); i += 8 {
				lw := binary.LittleEndian.Uint64(t.buf[i : i+8])
				if lw == 0 {
					continue
				}
				// The high bit of each byte of zero marks a zero counter.
				zero := ^((lw&lo7 + lo7) | lw | lo7) & hi
				n += 8 - bits.OnesCount64(zero)
				if h != nil {
					for b := 0; b < 64; b += 8 {
						if byte(lw>>b) != 0 {
							if c := &h.counts[i+b/8]; *c != ^uint32(0) {
								*c++
							}
							edges = append(edges, uint16(i+b/8))
						}
					}
				}
				binary.LittleEndian.PutUint64(t.buf[i:i+8], 0)
				sw := binary.LittleEndian.Uint64(seen[i : i+8])
				novel := classifyWord(lw) &^ sw
				if novel == 0 {
					continue
				}
				valuable = true
				for b := 0; b < 64; b += 8 {
					if byte(sw>>b) == 0 && byte(novel>>b) != 0 {
						v.edges++
					}
				}
				binary.LittleEndian.PutUint64(seen[i:i+8], sw|novel)
			}
		}
		t.dirty[wi] = 0
	}
	t.prev = 0
	return valuable, n, edges
}

// MergeVirgin folds another accumulator's observed state into v, the
// campaign-level union operation behind sharded fuzzing: each worker
// accumulates coverage locally and the shard runner periodically merges the
// local accumulators into (and back out of) a shared one. It returns true
// when o contributed at least one (edge, bucket) pair v had not seen. o is
// read, not modified.
func (v *Virgin) MergeVirgin(o *Virgin) bool {
	changed := false
	vs, os := v.seen[:], o.seen[:]
	for i := 0; i+8 <= len(os); i += 8 {
		ow := binary.LittleEndian.Uint64(os[i : i+8])
		if ow == 0 {
			continue
		}
		vw := binary.LittleEndian.Uint64(vs[i : i+8])
		novel := ow &^ vw
		if novel == 0 {
			continue
		}
		changed = true
		for b := 0; b < 64; b += 8 {
			if byte(vw>>b) == 0 && byte(novel>>b) != 0 {
				v.edges++
			}
		}
		binary.LittleEndian.PutUint64(vs[i:i+8], vw|novel)
	}
	return changed
}

// Edges returns the number of distinct edges observed so far, a coarse
// campaign-level coverage measure used by the speed-to-coverage experiment.
func (v *Virgin) Edges() int { return v.edges }

// Reset clears the accumulator.
func (v *Virgin) Reset() {
	v.seen = [MapSize]byte{}
	v.edges = 0
}
