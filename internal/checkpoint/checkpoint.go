// Package checkpoint is the repo's one canonical binary codec. Everything
// that leaves the engine as bytes is written by its Writer and read back by
// its Reader: durable campaign checkpoints (the versioned Snapshot/Restore
// seam every stateful layer serializes itself through, framed by Seal/Open),
// fleetnet frame payloads, session sequence encodings, and virgin-bitmap
// deltas. Those formats differ only in which fields they list; the
// primitives and their guarantees are defined here once.
//
// Every integer is a minimally-encoded unsigned varint (non-minimal
// encodings are rejected, so decoding is canonical — every accepted buffer
// re-encodes to itself byte for byte) unless a field is declared fixed-width;
// width-pinned reads (U32, Int and word fields) reject a value that does
// not fit its field instead of truncating it; lengths and element counts
// are validated against the remaining input before any allocation, so
// decode-time memory is bounded by the bytes received, not by what they
// claim; and trailing bytes are an error. Canonical encoding is what makes
// the round-trip golden test possible: snapshot → restore → snapshot must
// reproduce the identical byte string.
//
// Decoding never panics on hostile input: the Reader carries a sticky
// error, every accessor degrades to a zero value once it is set, and the
// fuzz targets (FuzzCheckpointDecode, FuzzFrameDecode, FuzzSequenceCodec,
// FuzzVirginDelta) pin that property over truncated, corrupt and
// non-minimal inputs.
//
// State with a regular layout is declared once as an ordered []Field
// (field.go) instead of a mirrored write/read pair, so the two directions
// cannot drift apart.
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// Magic leads every checkpoint file ("Peach* ChecKpoint").
const Magic = "PSCK"

// Version is the checkpoint envelope version. Restore rejects any other
// value, so the format can evolve without a flag day. Version 2 stores the
// coverage bitmap and the corpus journal in the fleet wire's record
// formats and the valuable queues by model index.
const Version = 2

// Writer accumulates a canonical binary encoding. The zero value is ready
// to use; Data returns the accumulated bytes.
type Writer struct {
	buf []byte
}

// Data returns the accumulated encoding.
func (w *Writer) Data() []byte { return w.buf }

// Len returns the number of bytes accumulated so far.
func (w *Writer) Len() int { return len(w.buf) }

// Uvarint appends one minimally-encoded unsigned varint.
func (w *Writer) Uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// Int appends one non-negative integer as a uvarint. Negative values are a
// programmer error — counters and cursors snapshotted through Int are
// non-negative by construction — and panic rather than corrupt the stream.
func (w *Writer) Int(v int) {
	if v < 0 {
		panic(fmt.Sprintf("checkpoint: Int(%d) is negative", v))
	}
	w.Uvarint(uint64(v))
}

// U64 appends one fixed-width little-endian 64-bit value — for hashes and
// RNG state words, where varint coding would save nothing.
func (w *Writer) U64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// Blob appends a length-prefixed byte string.
func (w *Writer) Blob(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Bool appends one canonical boolean byte (0 or 1).
func (w *Writer) Bool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// Reader decodes a canonical binary encoding with a sticky error: the
// first malformed field fails the whole decode, every later accessor
// returns a zero value, and Err reports what went wrong. Readers never
// panic on malformed input.
type Reader struct {
	data []byte
	err  error
}

// NewReader returns a reader over data. The reader aliases the slice;
// accessors that return bytes copy out.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err returns the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

// fail records the first decode error.
func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("checkpoint: "+format, args...)
	}
}

// Fail records a caller-diagnosed decode error — a value that read cleanly
// but is semantically out of range for the layer decoding it. Like the
// codec's own errors it is sticky: only the first failure is kept, and
// every subsequent read returns zero values.
func (r *Reader) Fail(err error) {
	if r.err == nil && err != nil {
		r.err = err
	}
}

// Uvarint reads one minimally-encoded unsigned varint, rejecting
// non-minimal encodings (0x80 0x00 for zero, and so on) and overflow.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, used := binary.Uvarint(r.data)
	if used <= 0 || (used > 1 && r.data[used-1] == 0) {
		r.fail("bad varint")
		return 0
	}
	r.data = r.data[used:]
	return v
}

// bits reads one uvarint that must fit in n bits, failing the reader on
// overflow so an over-wide value is rejected, never truncated.
func (r *Reader) bits(n uint) uint64 {
	v := r.Uvarint()
	if r.err == nil && v>>n != 0 {
		r.fail("value %d overflows %d bits", v, n)
		return 0
	}
	return v
}

// U32 reads one uvarint pinned to 32 bits.
func (r *Reader) U32() uint32 { return uint32(r.bits(32)) }

// Int reads one non-negative integer, rejecting a value wider than the
// platform's int.
func (r *Reader) Int() int {
	v := r.Uvarint()
	if r.err == nil && v > math.MaxInt {
		r.fail("integer %d overflows int", v)
		return 0
	}
	return int(v)
}

// Count reads an element count and validates it against the remaining
// input: every encoded element costs at least one byte, so a count larger
// than the remainder is corrupt. Validating here lets restore loops
// pre-size slices without a hostile length prefix allocating unbounded
// memory.
func (r *Reader) Count() int {
	v := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if v > uint64(len(r.data)) {
		r.fail("count %d exceeds %d remaining bytes", v, len(r.data))
		return 0
	}
	return int(v)
}

// U64 reads one fixed-width little-endian 64-bit value.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.data) < 8 {
		r.fail("truncated u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data)
	r.data = r.data[8:]
	return v
}

// Blob reads one length-prefixed byte string, copied out of the input. A
// zero-length blob decodes to nil, matching what Writer.Blob(nil) encoded.
func (r *Reader) Blob() []byte {
	n := r.Count()
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]byte, n)
	copy(out, r.data[:n])
	r.data = r.data[n:]
	return out
}

// String reads one length-prefixed string.
func (r *Reader) String() string {
	n := r.Count()
	if r.err != nil {
		return ""
	}
	s := string(r.data[:n])
	r.data = r.data[n:]
	return s
}

// Bool reads one canonical boolean byte; any value other than 0 or 1 is
// rejected, keeping the encoding canonical.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if len(r.data) == 0 {
		r.fail("truncated bool")
		return false
	}
	b := r.data[0]
	if b > 1 {
		r.fail("non-canonical bool byte %#x", b)
		return false
	}
	r.data = r.data[1:]
	return b == 1
}

// Finish asserts the input was fully consumed and returns the decode
// result: the sticky error, or an error for trailing bytes.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if len(r.data) != 0 {
		return fmt.Errorf("checkpoint: %d trailing bytes", len(r.data))
	}
	return nil
}

// Section is one framed region of a checkpoint envelope: a numeric ID (the
// composing layer assigns meaning) and the section's body.
type Section struct {
	// ID tags the section's kind.
	ID uint64
	// Body is the section's encoded payload.
	Body []byte
}

// Seal builds a checkpoint envelope: magic, version byte, the campaign's
// 64-bit rule-signature digest (restore refuses a checkpoint taken under
// different data models), then a section count and per-section uvarint ID +
// length-prefixed body.
func Seal(digest uint64, sections []Section) []byte {
	var w Writer
	w.buf = append(w.buf, Magic...)
	w.buf = append(w.buf, Version)
	w.U64(digest)
	w.Uvarint(uint64(len(sections)))
	for _, s := range sections {
		w.Uvarint(s.ID)
		w.Blob(s.Body)
	}
	return w.Data()
}

// Open parses a Seal-produced envelope, returning the digest and the
// sections (bodies copied out of data). Unknown magic or version,
// truncation, non-minimal varints and trailing bytes are errors.
func Open(data []byte) (digest uint64, sections []Section, err error) {
	if len(data) < len(Magic)+1 {
		return 0, nil, fmt.Errorf("checkpoint: truncated envelope")
	}
	if string(data[:len(Magic)]) != Magic {
		return 0, nil, fmt.Errorf("checkpoint: bad magic")
	}
	if v := data[len(Magic)]; v != Version {
		return 0, nil, fmt.Errorf("checkpoint: unknown version %d", v)
	}
	r := NewReader(data[len(Magic)+1:])
	digest = r.U64()
	n := r.Count()
	sections = make([]Section, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		id := r.Uvarint()
		body := r.Blob()
		sections = append(sections, Section{ID: id, Body: body})
	}
	if err := r.Finish(); err != nil {
		return 0, nil, err
	}
	return digest, sections, nil
}

// WriteFileAtomic writes data to path crash-safely: the bytes land in a
// temporary file in the same directory, are synced to disk, and replace
// path with a single rename — a reader (or a warm restart after a kill
// mid-write) sees either the previous checkpoint or the new one, never a
// torn mix.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}
