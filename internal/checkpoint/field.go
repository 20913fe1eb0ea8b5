package checkpoint

import (
	"cmp"
	"fmt"
	"slices"
)

// Field is one unit of checkpointed state: it writes itself through a
// Writer and reads itself back through a Reader. Whole layers satisfy it
// with hand-written methods (mem.Heap, coverage.Virgin, corpus.Corpus,
// crash.Bank); the constructors below build one over a pointer into the
// owner's storage, so a target declares its state once as an ordered
// []Field and write/read symmetry and width checks hold by construction.
type Field interface {
	// Snapshot appends the field's encoding.
	Snapshot(w *Writer)
	// Restore overwrites the field from the encoding, returning the
	// first decode or validation error.
	Restore(r *Reader) error
}

// SnapshotFields writes every field in order.
func SnapshotFields(w *Writer, fields []Field) {
	for _, f := range fields {
		f.Snapshot(w)
	}
}

// RestoreFields reads every field in order, stopping at the first error.
func RestoreFields(r *Reader, fields []Field) error {
	for _, f := range fields {
		if err := f.Restore(r); err != nil {
			return err
		}
	}
	return r.Err()
}

type funcField struct {
	snapshot func(*Writer)       //peachstar:nosnap one half of the codec itself, not state
	restore  func(*Reader) error //peachstar:nosnap one half of the codec itself, not state
}

func (f funcField) Snapshot(w *Writer)      { f.snapshot(w) }
func (f funcField) Restore(r *Reader) error { return f.restore(r) }

// Func is the escape-hatch field: an explicit write/read pair, for layouts
// the constructors below do not cover (fixed-width bit patterns, nested
// maps, restores that validate against live structure).
func Func(snapshot func(*Writer), restore func(*Reader) error) Field {
	return funcField{snapshot, restore}
}

// Codec is the write/read pair of one element type, the building block of
// the slice and map constructors.
type Codec[T any] struct {
	Put func(*Writer, T)
	Get func(*Reader) T
}

// The codecs of the Writer/Reader primitives.
var (
	BoolCodec   = Codec[bool]{(*Writer).Bool, (*Reader).Bool}
	IntCodec    = Codec[int]{(*Writer).Int, (*Reader).Int}
	U64Codec    = Codec[uint64]{(*Writer).U64, (*Reader).U64}
	BlobCodec   = Codec[[]byte]{(*Writer).Blob, (*Reader).Blob}
	StringCodec = Codec[string]{(*Writer).String, (*Reader).String}
)

// Word is an integer of at most 32 bits. Signed words are stored as their
// unsigned bit pattern.
type Word interface {
	~uint8 | ~uint16 | ~uint32 | ~int16 | ~int32
}

// WordCodec is the uvarint codec of T: the read side pins the value to T's
// width, so a stored value that does not fit is rejected, not truncated.
func WordCodec[T Word]() Codec[T] {
	var n uint
	for x := T(1); x != 0; x <<= 1 { // the set bit falls off after T's width
		n++
	}
	mask := uint64(1)<<n - 1
	return Codec[T]{
		func(w *Writer, v T) { w.Uvarint(uint64(v) & mask) },
		func(r *Reader) T { return T(r.bits(n)) },
	}
}

// ListCodec is a counted list of elements under codec c; an empty list
// decodes to nil.
func ListCodec[T any](c Codec[T]) Codec[[]T] {
	return Codec[[]T]{
		func(w *Writer, l []T) {
			w.Int(len(l))
			for _, v := range l {
				c.Put(w, v)
			}
		},
		func(r *Reader) (l []T) {
			for n := r.Count(); len(l) < n && r.Err() == nil; {
				l = append(l, c.Get(r))
			}
			return l
		},
	}
}

// Value is one variable under codec c.
func Value[T any](p *T, c Codec[T]) Field {
	return Func(func(w *Writer) { c.Put(w, *p) }, func(r *Reader) error { *p = c.Get(r); return r.Err() })
}

// Slice is a fixed-length run of elements under codec c (no count prefix:
// the length is the owner's bank size, not the stream's).
func Slice[T any](p []T, c Codec[T]) Field {
	return Func(func(w *Writer) {
		for _, v := range p {
			c.Put(w, v)
		}
	}, func(r *Reader) error {
		for i := range p {
			p[i] = c.Get(r)
		}
		return r.Err()
	})
}

// Map is a map written canonically: an entry count, then key and value in
// strictly ascending key order. Restore replaces *p and rejects keys that
// repeat or arrive out of order.
func Map[K cmp.Ordered, V any](p *map[K]V, kc Codec[K], vc Codec[V]) Field {
	return Func(func(w *Writer) {
		keys := make([]K, 0, len(*p))
		for k := range *p {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		w.Int(len(keys))
		for _, k := range keys {
			kc.Put(w, k)
			vc.Put(w, (*p)[k])
		}
	}, func(r *Reader) error {
		n := r.Count()
		m := make(map[K]V, n)
		var prev K
		for i := 0; i < n && r.Err() == nil; i++ {
			k, v := kc.Get(r), vc.Get(r)
			if i > 0 && k <= prev && r.Err() == nil {
				return fmt.Errorf("checkpoint: map key %v does not ascend", k)
			}
			m[k], prev = v, k
		}
		if r.Err() == nil {
			*p = m
		}
		return r.Err()
	})
}

// Bool is one canonical boolean byte.
func Bool(p *bool) Field { return Value(p, BoolCodec) }

// Bools is a fixed-length run of boolean bytes.
func Bools(p []bool) Field { return Slice(p, BoolCodec) }

// Int is one non-negative int.
func Int(p *int) Field { return Value(p, IntCodec) }

// U64 is one fixed-width 64-bit value.
func U64(p *uint64) Field { return Value(p, U64Codec) }

// Blob is one length-prefixed byte string of any length.
func Blob(p *[]byte) Field { return Value(p, BlobCodec) }

// Uint is one width-pinned uvarint.
func Uint[T Word](p *T) Field { return Value(p, WordCodec[T]()) }

// Uints is a fixed-length run of width-pinned uvarints.
func Uints[T Word](p []T) Field { return Slice(p, WordCodec[T]()) }

// FixedBlob is one length-prefixed byte string whose length must equal the
// owner's fixed-size bank.
func FixedBlob(p []byte) Field {
	return Func(func(w *Writer) { w.Blob(p) }, func(r *Reader) error {
		b := r.Blob()
		if r.Err() == nil && len(b) != len(p) {
			return fmt.Errorf("checkpoint: blob of %d bytes, bank holds %d", len(b), len(p))
		}
		copy(p, b)
		return r.Err()
	})
}
