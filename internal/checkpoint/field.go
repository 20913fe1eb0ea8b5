package checkpoint

import (
	"cmp"
	"fmt"
	"slices"
)

// Field is one unit of checkpointed state: it writes itself through a
// Writer and reads itself back through a Reader. The constructors below
// build one over a pointer into the owner's storage, so a layer declares
// its state once as an ordered []Field and write/read symmetry and width
// checks hold by construction. Whole layers satisfy it too: mem.Heap,
// corpus.Corpus and crash.Bank walk their own field list in both
// directions (the last two validate and rebuild their indexes in one pass
// after it), and coverage.Virgin writes its fleet wire delta against an
// all-zero shadow.
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
	snapshot func(*Writer)       // one half of the codec itself, not state
	restore  func(*Reader) error // one half of the codec itself, not state
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
	BlobCodec   = Codec[[]byte]{(*Writer).Blob, (*Reader).Blob}
	StringCodec = Codec[string]{(*Writer).String, (*Reader).String}
)

// Word is a fixed-width integer stored as a uvarint. Signed words are
// stored as their unsigned bit pattern.
type Word interface {
	~uint8 | ~uint16 | ~uint32 | ~uint64 | ~int16 | ~int32
}

// WordCodec is the uvarint codec of T: the read side pins the value to T's
// width, so a stored value that does not fit is rejected, not truncated.
func WordCodec[T Word]() Codec[T] {
	n := width[T]()
	mask := uint64(1)<<n - 1
	return Codec[T]{
		func(w *Writer, v T) { w.Uvarint(uint64(v) & mask) },
		func(r *Reader) T { return T(r.bits(n)) },
	}
}

// ListCodec is a counted list of elements under codec c; an empty list
// decodes to nil. The decoded list is allocated once, at the count
// Reader.Count has already bounded by the bytes that remain.
func ListCodec[T any](c Codec[T]) Codec[[]T] {
	return Codec[[]T]{
		func(w *Writer, l []T) {
			w.Int(len(l))
			for _, v := range l {
				c.Put(w, v)
			}
		},
		func(r *Reader) []T {
			n := r.Count()
			if n == 0 {
				return nil
			}
			l := make([]T, 0, n)
			for len(l) < n && r.Err() == nil {
				l = append(l, c.Get(r))
			}
			return l
		},
	}
}

// Record is the codec of a struct declared as the ordered fields of one
// value: both directions walk the same list, so an element's write and
// read cannot disagree. A field's restore error fails the reader. The
// list is built once, over one scratch element that every Put and Get
// goes through, so a record costs no allocation of its own — and the
// codec must not be shared between goroutines: build it where it is
// walked.
func Record[T any](fields func(*T) []Field) Codec[T] {
	var cur T
	fs := fields(&cur)
	return Codec[T]{
		func(w *Writer, v T) {
			cur = v
			SnapshotFields(w, fs)
		},
		func(r *Reader) T {
			var zero T
			cur = zero
			r.Fail(RestoreFields(r, fs))
			return cur
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

// width is T's width in bits.
func width[T Word]() (n uint) {
	for x := T(1); x != 0; x <<= 4 { // the set bit falls off after T's width
		n += 4
	}
	return n
}

// The scalar fields are one pointer wide, so declaring one allocates
// nothing: a field list rebuilt at every walk costs only its slice.
type (
	boolField              struct{ p *bool }
	intField               struct{ p *int }
	u64Field               struct{ p *uint64 }
	wordField[T Word]      struct{ p *T }
	stringField[T ~string] struct{ p *T }
)

func (f boolField) Snapshot(w *Writer)           { w.Bool(*f.p) }
func (f boolField) Restore(r *Reader) error      { *f.p = r.Bool(); return r.Err() }
func (f intField) Snapshot(w *Writer)            { w.Int(*f.p) }
func (f intField) Restore(r *Reader) error       { *f.p = r.Int(); return r.Err() }
func (f u64Field) Snapshot(w *Writer)            { w.U64(*f.p) }
func (f u64Field) Restore(r *Reader) error       { *f.p = r.U64(); return r.Err() }
func (f wordField[T]) Snapshot(w *Writer)        { w.Uvarint(uint64(*f.p) & (uint64(1)<<width[T]() - 1)) }
func (f wordField[T]) Restore(r *Reader) error   { *f.p = T(r.bits(width[T]())); return r.Err() }
func (f stringField[T]) Snapshot(w *Writer)      { w.String(string(*f.p)) }
func (f stringField[T]) Restore(r *Reader) error { *f.p = T(r.String()); return r.Err() }

// Bool is one canonical boolean byte.
func Bool(p *bool) Field { return boolField{p} }

// Bools is a fixed-length run of boolean bytes.
func Bools(p []bool) Field { return Slice(p, BoolCodec) }

// Int is one non-negative int.
func Int(p *int) Field { return intField{p} }

// U64 is one fixed-width 64-bit value.
func U64(p *uint64) Field { return u64Field{p} }

// Blob is one length-prefixed byte string of any length.
func Blob(p *[]byte) Field { return Value(p, BlobCodec) }

// String is one length-prefixed string, of any string type.
func String[T ~string](p *T) Field { return stringField[T]{p} }

// Uint is one width-pinned uvarint.
func Uint[T Word](p *T) Field { return wordField[T]{p} }

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

// Dim is one dimension of the owner's live structure (a table's row count,
// a state machine's size): it writes n, and restore rejects any other
// stored value, naming what in the error.
func Dim(n int, what string) Field {
	return Func(func(w *Writer) { w.Int(n) }, func(r *Reader) error {
		if got := r.Int(); r.Err() == nil && got != n {
			return fmt.Errorf("checkpoint: %d %s stored, %d live", got, what, n)
		}
		return r.Err()
	})
}

// Rows is n records stored one after another, record i being the fields
// row(i) declares — parallel slices interleaved element by element. No
// count prefix: n is the owner's (a Dim before it stores it).
func Rows(n int, row func(i int) []Field) Field {
	return Func(func(w *Writer) {
		for i := 0; i < n; i++ {
			SnapshotFields(w, row(i))
		}
	}, func(r *Reader) error {
		for i := 0; i < n; i++ {
			if err := RestoreFields(r, row(i)); err != nil {
				return err
			}
		}
		return r.Err()
	})
}

// Optional is a presence byte followed, when it is set, by the fields of
// one optional part. On snapshot, on reports whether the part exists. On
// restore, open is told what the byte said before anything else is read,
// so it can build the part, clear it, or refuse it.
func Optional(on func() bool, open func(present bool) error, fields func() []Field) Field {
	return Func(func(w *Writer) {
		present := on()
		w.Bool(present)
		if present {
			SnapshotFields(w, fields())
		}
	}, func(r *Reader) error {
		present := r.Bool()
		if r.Err() != nil {
			return r.Err()
		}
		if err := open(present); err != nil || !present {
			return err
		}
		return RestoreFields(r, fields())
	})
}

// Bounded is one int that restore rejects above max(), evaluated once the
// fields before it are restored (a cursor into a restored queue).
func Bounded(p *int, max func() int, what string) Field {
	return Func(func(w *Writer) { w.Int(*p) }, func(r *Reader) error {
		if *p = r.Int(); r.Err() == nil && *p > max() {
			return fmt.Errorf("checkpoint: %s %d exceeds %d", what, *p, max())
		}
		return r.Err()
	})
}
