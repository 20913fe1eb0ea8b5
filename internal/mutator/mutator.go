// Package mutator implements the Peach-style per-data-type mutators that
// the GENERATE step of Algorithm 1 draws from. The paper (§II) describes
// three classes: random generation, mutation of the default value, and
// mutation of existing chunks (from user seeds or previously generated
// ones). Each mutator here targets one leaf chunk kind and produces new
// leaf bytes; structure-level decisions (choices, array counts) are made by
// the generation strategies in internal/core.
package mutator

import (
	"repro/internal/datamodel"
	"repro/internal/rng"
)

// Mutator produces a value for one leaf chunk. prev is the chunk's previous
// instantiation (nil when generating from scratch); mutators that need an
// existing value fall back to the default when prev is nil.
type Mutator interface {
	// Name identifies the mutator in logs and ablation reports.
	Name() string
	// Kinds is the set of chunk kinds the mutator handles. Whether a
	// mutator applies depends on the chunk's kind alone, so a Table
	// resolves it once per kind instead of once per pick.
	Kinds() Kinds
	// Mutate returns new wire bytes for the chunk, allocated from a when
	// possible: on the engine's hot path the returned slice lives only
	// until the arena's next Reset (one generation round), which is the
	// lifetime of the instance tree it is written into — anything that
	// retains longer must copy. A nil arena degrades to plain heap
	// allocation (the datamodel.Arena contract), so standalone use needs
	// no setup. Mutate never writes through prev, which may itself be
	// arena-backed or a read-only corpus alias.
	Mutate(r *rng.RNG, c *datamodel.Chunk, prev []byte, a *datamodel.Arena) []byte
}

// interestingU64 are boundary values mutation-based fuzzers have found
// productive: zero, small counts, sign boundaries, and width maxima.
var interestingU64 = []uint64{
	0, 1, 2, 3, 4, 8, 16, 32, 64, 100, 127, 128, 255, 256,
	512, 1000, 1024, 4096, 32767, 32768, 65535, 65536,
	0x7FFFFFFF, 0x80000000, 0xFFFFFFFF,
	0x7FFFFFFFFFFFFFFF, 0x8000000000000000, 0xFFFFFFFFFFFFFFFF,
}

// --- Number mutators ---

// NumberRandom draws a uniform value of the chunk's width; when the chunk
// declares a legal set it usually respects it but occasionally violates it
// deliberately, because illegal opcodes exercise error paths.
type NumberRandom struct{}

// Name implements Mutator.
func (NumberRandom) Name() string { return "NumberRandom" }

// Kinds implements Mutator: Number chunks.
func (NumberRandom) Kinds() Kinds { return numberKinds }

// Mutate implements Mutator.
func (NumberRandom) Mutate(r *rng.RNG, c *datamodel.Chunk, _ []byte, a *datamodel.Arena) []byte {
	var v uint64
	if len(c.Legal) > 0 && !r.Chance(8) {
		v = rng.Pick(r, c.Legal)
	} else {
		v = r.Uint64() & mask(c.Width)
	}
	return encode(a, v, c)
}

// NumberEdgeCase picks one of the interesting boundary values, truncated to
// the chunk's width.
type NumberEdgeCase struct{}

// Name implements Mutator.
func (NumberEdgeCase) Name() string { return "NumberEdgeCase" }

// Kinds implements Mutator: Number chunks.
func (NumberEdgeCase) Kinds() Kinds { return numberKinds }

// Mutate implements Mutator.
func (NumberEdgeCase) Mutate(r *rng.RNG, c *datamodel.Chunk, _ []byte, a *datamodel.Arena) []byte {
	return encode(a, rng.Pick(r, interestingU64)&mask(c.Width), c)
}

// NumberDeltaFromDefault perturbs the default (or previous) value by a small
// signed delta — Peach's "mutation on default value".
type NumberDeltaFromDefault struct{}

// Name implements Mutator.
func (NumberDeltaFromDefault) Name() string { return "NumberDeltaFromDefault" }

// Kinds implements Mutator: Number chunks.
func (NumberDeltaFromDefault) Kinds() Kinds { return numberKinds }

// Mutate implements Mutator.
func (NumberDeltaFromDefault) Mutate(r *rng.RNG, c *datamodel.Chunk, prev []byte, a *datamodel.Arena) []byte {
	base := c.Default
	if prev != nil {
		base = decode(prev, c)
	}
	delta := uint64(r.Range(1, 16))
	if r.Bool() {
		base += delta
	} else {
		base -= delta
	}
	return encode(a, base&mask(c.Width), c)
}

// --- Blob/String mutators ---

// BlobRandom regenerates the payload with random bytes, choosing a size in
// the declared range for variable chunks.
type BlobRandom struct{}

// Name implements Mutator.
func (BlobRandom) Name() string { return "BlobRandom" }

// Kinds implements Mutator: Blob and String chunks.
func (BlobRandom) Kinds() Kinds { return blobKinds }

// Mutate implements Mutator.
func (BlobRandom) Mutate(r *rng.RNG, c *datamodel.Chunk, _ []byte, a *datamodel.Arena) []byte {
	n := sizeFor(r, c)
	out := a.Buffer(n)[:n] // every byte is written below
	for i := range out {
		if c.Kind == datamodel.String {
			out[i] = byte('!' + r.Intn(94)) // printable ASCII
		} else {
			out[i] = r.Byte()
		}
	}
	return out
}

// BlobBitFlip flips 1–8 bits of the previous value (or the default).
type BlobBitFlip struct{}

// Name implements Mutator.
func (BlobBitFlip) Name() string { return "BlobBitFlip" }

// Kinds implements Mutator: Blob and String chunks.
func (BlobBitFlip) Kinds() Kinds { return blobKinds }

// Mutate implements Mutator.
func (BlobBitFlip) Mutate(r *rng.RNG, c *datamodel.Chunk, prev []byte, a *datamodel.Arena) []byte {
	base := prev
	if len(base) == 0 {
		base = defaultBytes(c, a)
	}
	if len(base) == 0 {
		return nil
	}
	out := append(a.Buffer(len(base)), base...)
	for k := r.Range(1, 8); k > 0; k-- {
		i := r.Intn(len(out) * 8)
		out[i/8] ^= 1 << (i % 8)
	}
	return out
}

// BlobExpand grows the payload, duplicating a random run — probes length
// handling. Fixed-size chunks are resized anyway: the engine's fixup pass
// repairs size relations, and over-long fixed fields are how real packet
// bugs (Table I's overflow) get reached.
type BlobExpand struct{}

// Name implements Mutator.
func (BlobExpand) Name() string { return "BlobExpand" }

// Kinds implements Mutator: Blob and String chunks.
func (BlobExpand) Kinds() Kinds { return blobKinds }

// Mutate implements Mutator.
func (BlobExpand) Mutate(r *rng.RNG, c *datamodel.Chunk, prev []byte, a *datamodel.Arena) []byte {
	base := prev
	if len(base) == 0 {
		base = defaultBytes(c, a)
	}
	if len(base) == 0 {
		base = zeroByte
	}
	// Same RNG draw order as always (times, then the segment bounds); the
	// output buffer is sized after the segment is known so the appends
	// below stay inside one arena allocation.
	times := r.Range(2, 8)
	seg := base
	if len(base) > 4 {
		s := r.Intn(len(base) - 1)
		e := r.Range(s+1, len(base))
		seg = base[s:e]
	}
	out := append(a.Buffer(len(base)+times*len(seg)), base...)
	for i := 0; i < times; i++ {
		out = append(out, seg...)
	}
	if c.MaxSize > 0 && len(out) > c.MaxSize {
		out = out[:c.MaxSize]
	}
	return out
}

// BlobTruncate shrinks the payload — probes missing-field handling, the
// class of defect behind the paper's Listing 1 (a field "malformed or
// missing").
type BlobTruncate struct{}

// Name implements Mutator.
func (BlobTruncate) Name() string { return "BlobTruncate" }

// Kinds implements Mutator: Blob and String chunks.
func (BlobTruncate) Kinds() Kinds { return blobKinds }

// Mutate implements Mutator.
func (BlobTruncate) Mutate(r *rng.RNG, c *datamodel.Chunk, prev []byte, a *datamodel.Arena) []byte {
	base := prev
	if len(base) == 0 {
		base = defaultBytes(c, a)
	}
	if len(base) == 0 {
		return nil
	}
	keep := r.Intn(len(base))
	return append(a.Buffer(keep), base[:keep]...)
}

// --- Suite ---

// Suite is the default mutator set, mirroring Peach's built-in Mutators.
func Suite() []Mutator {
	return []Mutator{
		NumberRandom{},
		NumberEdgeCase{},
		NumberDeltaFromDefault{},
		BlobRandom{},
		BlobBitFlip{},
		BlobExpand{},
		BlobTruncate{},
	}
}

// Kinds is a set of chunk kinds, one bit per datamodel.Kind.
type Kinds uint32

// The kind sets of the built-in mutators.
const (
	numberKinds = Kinds(1) << datamodel.Number
	blobKinds   = Kinds(1)<<datamodel.Blob | Kinds(1)<<datamodel.String
)

// Has reports whether k is in the set.
func (s Kinds) Has(k datamodel.Kind) bool { return k >= 0 && k < 32 && s&(1<<k) != 0 }

// Pick selects a uniformly random mutator applicable to the chunk, or nil
// when none applies (interior chunks), by scanning the suite: one Intn
// draw over the applicable count, then the k-th applicable mutator in
// suite order. It allocates nothing. A Table draws the same mutator with
// the same single draw from a list it built once; Pick is the scan the
// table is held to, for callers without one.
func Pick(r *rng.RNG, suite []Mutator, c *datamodel.Chunk) Mutator {
	apt := 0
	for _, m := range suite {
		if m.Kinds().Has(c.Kind) {
			apt++
		}
	}
	if apt == 0 {
		return nil
	}
	k := r.Intn(apt)
	for _, m := range suite {
		if !m.Kinds().Has(c.Kind) {
			continue
		}
		if k == 0 {
			return m
		}
		k--
	}
	return nil // unreachable
}

// Table is a mutator suite indexed by chunk kind: for each kind, the suite
// indices of the mutators that handle it, in suite order. A pick is then
// one draw and one lookup. Built once per engine; read-only afterwards.
type Table struct {
	suite  []Mutator
	byKind [32][]int // suite indices per kind; 32 = the width of Kinds
}

// NewTable indexes the suite by kind.
func NewTable(suite []Mutator) *Table {
	t := &Table{suite: suite}
	for i, m := range suite {
		for k := range t.byKind {
			if m.Kinds().Has(datamodel.Kind(k)) {
				t.byKind[k] = append(t.byKind[k], i)
			}
		}
	}
	return t
}

// Suite returns the indexed suite, in suite order. Callers must not modify
// it.
func (t *Table) Suite() []Mutator { return t.suite }

// applicable lists the suite indices of the mutators handling c's kind.
func (t *Table) applicable(c *datamodel.Chunk) []int {
	if c.Kind < 0 || int(c.Kind) >= len(t.byKind) {
		return nil
	}
	return t.byKind[c.Kind]
}

// Pick is the package-level Pick over the table's suite: the same
// mutator, drawn with the same single Intn.
func (t *Table) Pick(r *rng.RNG, c *datamodel.Chunk) Mutator {
	apt := t.applicable(c)
	if len(apt) == 0 {
		return nil
	}
	return t.suite[apt[r.Intn(len(apt))]]
}

// PickWeighted selects a mutator applicable to the chunk with probability
// proportional to its weight, returning it with its suite index, or
// (nil, -1) when none applies. weights is indexed parallel to the suite;
// entries for inapplicable mutators are ignored. A nil (or short) weights
// slice treats missing entries as weight 1, so PickWeighted(r, c, nil) is
// a uniform draw like Pick — but note it draws from the RNG differently
// (one Uint64 over the weight total rather than one Intn over the
// applicable count), so the two are distinct streams: the engine's
// adaptive-off path must keep calling Pick.
//
// Exactly one RNG value is consumed per call with at least one applicable
// mutator, so the choice is deterministic for a fixed RNG state, and the
// call allocates nothing. Callers enforce the scheduler's starvation floor
// by never passing a zero weight; a weight of 0 is tolerated (the mutator
// is simply never drawn) unless every applicable weight is 0, which falls
// back to a uniform draw over the applicable set so the call still
// consumes one value and returns a mutator.
func (t *Table) PickWeighted(r *rng.RNG, c *datamodel.Chunk, weights []uint32) (Mutator, int) {
	apt := t.applicable(c)
	if len(apt) == 0 {
		return nil, -1
	}
	var total uint64
	for _, i := range apt {
		total += uint64(weightAt(weights, i))
	}
	if total == 0 {
		// All applicable weights zero: degrade to the uniform draw.
		i := apt[r.Intn(len(apt))]
		return t.suite[i], i
	}
	k := r.Uint64() % total
	for _, i := range apt {
		w := uint64(weightAt(weights, i))
		if k < w {
			return t.suite[i], i
		}
		k -= w
	}
	return nil, -1 // unreachable: k < total by construction
}

// weightAt reads the weight of mutator i, defaulting to 1 past the end of
// (or without) a weights slice.
func weightAt(weights []uint32, i int) uint32 {
	if i >= len(weights) {
		return 1
	}
	return weights[i]
}

// --- helpers ---

func mask(width int) uint64 {
	if width >= 8 {
		return ^uint64(0)
	}
	return (1 << (8 * width)) - 1
}

// zeroByte is the shared one-byte fallback payload for empty expandable
// chunks; mutators never write through their base, so sharing is safe.
var zeroByte = []byte{0}

// encode renders v at the chunk's width and endianness into an
// arena-backed buffer (every byte is overwritten, so the buffer needs no
// zeroing).
func encode(a *datamodel.Arena, v uint64, c *datamodel.Chunk) []byte {
	out := a.Buffer(c.Width)[:c.Width]
	if c.Endian == datamodel.Big {
		for i := c.Width - 1; i >= 0; i-- {
			out[i] = byte(v)
			v >>= 8
		}
	} else {
		for i := 0; i < c.Width; i++ {
			out[i] = byte(v)
			v >>= 8
		}
	}
	return out
}

func decode(data []byte, c *datamodel.Chunk) uint64 {
	var v uint64
	if c.Endian == datamodel.Big {
		for _, b := range data {
			v = v<<8 | uint64(b)
		}
	} else {
		for i := len(data) - 1; i >= 0; i-- {
			v = v<<8 | uint64(data[i])
		}
	}
	return v
}

func sizeFor(r *rng.RNG, c *datamodel.Chunk) int {
	if c.Size != datamodel.Variable {
		return c.Size
	}
	max := c.MaxSize
	if max <= 0 {
		max = c.MinSize + 32
	}
	return r.Range(c.MinSize, max)
}

// defaultBytes is the chunk's fallback base value: its declared default,
// or an arena-backed zero payload of its declared size. Callers treat the
// result as read-only.
func defaultBytes(c *datamodel.Chunk, a *datamodel.Arena) []byte {
	if len(c.DefaultBytes) > 0 {
		return c.DefaultBytes
	}
	if c.Size > 0 {
		return a.Bytes(c.Size)
	}
	if c.MinSize > 0 {
		return a.Bytes(c.MinSize)
	}
	return nil
}
