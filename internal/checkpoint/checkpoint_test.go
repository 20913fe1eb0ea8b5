package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestWriterReaderRoundTrip: every field kind decodes to what was encoded,
// in order, the input is fully consumed, and re-encoding the decoded values
// reproduces the byte string (the canonical-encoding property the
// campaign-level round-trip golden builds on).
func TestWriterReaderRoundTrip(t *testing.T) {
	encode := func(u uint64, i int, h uint64, b []byte, s string, f bool) []byte {
		var w Writer
		w.Uvarint(u)
		w.Int(i)
		w.U64(h)
		w.Blob(b)
		w.String(s)
		w.Bool(f)
		return w.Data()
	}
	for _, tc := range []struct {
		name string
		u    uint64
		i    int
		h    uint64
		b    []byte
		s    string
		f    bool
	}{
		{"zeros", 0, 0, 0, nil, "", false},
		{"small", 1, 127, 1, []byte{0}, "a", true},
		{"varint boundaries", 128, 16384, 0xDEADBEEFCAFEF00D, []byte{0x80, 0x00, 0xFF}, "seq\x00modbus", true},
		{"max", ^uint64(0), int(^uint(0) >> 1), ^uint64(0), bytes.Repeat([]byte{0xAB}, 300), strings.Repeat("x", 200), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			enc := encode(tc.u, tc.i, tc.h, tc.b, tc.s, tc.f)
			r := NewReader(enc)
			u, i, h, b, s, f := r.Uvarint(), r.Int(), r.U64(), r.Blob(), r.String(), r.Bool()
			if err := r.Finish(); err != nil {
				t.Fatalf("Finish = %v", err)
			}
			if u != tc.u || i != tc.i || h != tc.h || !bytes.Equal(b, tc.b) || s != tc.s || f != tc.f {
				t.Fatalf("decoded (%d %d %#x %x %q %v), want (%d %d %#x %x %q %v)",
					u, i, h, b, s, f, tc.u, tc.i, tc.h, tc.b, tc.s, tc.f)
			}
			if again := encode(u, i, h, b, s, f); !bytes.Equal(again, enc) {
				t.Fatalf("re-encoding differs: %x vs %x", again, enc)
			}
		})
	}
}

// TestReaderRejects covers each malformed-field rejection the package
// promises; every case must fail through Finish, never panic.
func TestReaderRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		data []byte
		read func(*Reader)
		want string // substring of the error
	}{
		{"non-minimal varint zero", []byte{0x80, 0x00}, func(r *Reader) { r.Uvarint() }, "bad varint"},
		{"non-minimal varint one", []byte{0x81, 0x80, 0x00}, func(r *Reader) { r.Uvarint() }, "bad varint"},
		{"truncated varint", []byte{0x80}, func(r *Reader) { r.Uvarint() }, "bad varint"},
		{"empty varint", nil, func(r *Reader) { r.Uvarint() }, "bad varint"},
		{"varint overflows 64 bits", bytes.Repeat([]byte{0xFF}, 11), func(r *Reader) { r.Uvarint() }, "bad varint"},
		{"int overflow", []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}, func(r *Reader) { r.Int() }, "overflows int"},
		{"int wider than the platform's", binary.AppendUvarint(nil, math.MaxInt+1), func(r *Reader) { r.Int() }, "overflows int"},
		{"u32 overflow", []byte{0x80, 0x80, 0x80, 0x80, 0x10}, func(r *Reader) { r.U32() }, "overflows 32 bits"},
		{"count overflow", []byte{0x05, 1, 2, 3}, func(r *Reader) { r.Count() }, "count 5 exceeds 3"},
		{"blob longer than input", []byte{0x04, 1, 2, 3}, func(r *Reader) { r.Blob() }, "count 4 exceeds 3"},
		{"string longer than input", []byte{0x02, 'a'}, func(r *Reader) { _ = r.String() }, "count 2 exceeds 1"},
		{"truncated u64", []byte{1, 2, 3, 4, 5, 6, 7}, func(r *Reader) { r.U64() }, "truncated u64"},
		{"truncated bool", nil, func(r *Reader) { r.Bool() }, "truncated bool"},
		{"non-canonical bool", []byte{2}, func(r *Reader) { r.Bool() }, "non-canonical bool"},
		{"trailing bytes", []byte{0x01, 0x00}, func(r *Reader) { r.Uvarint() }, "1 trailing bytes"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader(tc.data)
			tc.read(r)
			err := r.Finish()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Finish = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// TestReaderErrorIsSticky: after the first failure — the codec's own or a
// caller's Fail — every accessor returns its zero value without consuming
// input, and the first error is the one reported.
func TestReaderErrorIsSticky(t *testing.T) {
	var w Writer
	w.Uvarint(7)
	w.U64(9)
	w.Blob([]byte("payload"))
	w.String("tail")
	w.Bool(true)

	r := NewReader(w.Data())
	if got := r.Uvarint(); got != 7 {
		t.Fatalf("Uvarint = %d before the failure, want 7", got)
	}
	first := errors.New("layer: value out of range")
	r.Fail(first)
	r.Fail(errors.New("second failure must not replace the first"))
	r.Fail(nil)
	before := len(r.data)
	if u, i, c, h, b, s, f := r.Uvarint(), r.Int(), r.Count(), r.U64(), r.Blob(), r.String(), r.Bool(); u != 0 || i != 0 || c != 0 || h != 0 || b != nil || s != "" || f {
		t.Fatalf("accessors after Fail returned (%d %d %d %d %x %q %v), want zero values", u, i, c, h, b, s, f)
	}
	if len(r.data) != before {
		t.Fatalf("accessors consumed %d bytes after Fail", before-len(r.data))
	}
	if r.Err() != first || r.Finish() != first {
		t.Fatalf("Err = %v, Finish = %v, want the first failure", r.Err(), r.Finish())
	}

	// The codec's own errors are sticky the same way.
	r = NewReader([]byte{0x80, 0x00, 0x01})
	r.Uvarint()
	if got := r.Uvarint(); got != 0 || len(r.data) != 3 {
		t.Fatalf("read past a bad varint: got %d, %d bytes remaining", got, len(r.data))
	}
}

// TestSealOpen: an envelope opens to exactly the digest and sections it was
// sealed with — the digest comes back verbatim, which is what lets the
// restoring layer refuse a checkpoint taken under different data models.
func TestSealOpen(t *testing.T) {
	sections := []Section{{ID: 1, Body: []byte("coverage")}, {ID: 300, Body: nil}, {ID: 2, Body: []byte{0}}}
	const digest = 0x1122334455667788
	env := Seal(digest, sections)

	got, secs, err := Open(env)
	if err != nil {
		t.Fatal(err)
	}
	if got != digest {
		t.Fatalf("digest = %#x, want %#x", got, uint64(digest))
	}
	if len(secs) != len(sections) {
		t.Fatalf("%d sections, want %d", len(secs), len(sections))
	}
	for i, s := range secs {
		if s.ID != sections[i].ID || !bytes.Equal(s.Body, sections[i].Body) {
			t.Fatalf("section %d = %+v, want %+v", i, s, sections[i])
		}
	}
	if again := Seal(got, secs); !bytes.Equal(again, env) {
		t.Fatal("re-sealing the opened envelope differs")
	}
	// Bodies are copied out: scribbling over the input must not reach them.
	for i := range env {
		env[i] = 0xEE
	}
	if string(secs[0].Body) != "coverage" {
		t.Fatal("opened section aliases the input buffer")
	}

	other, _, err := Open(Seal(digest+1, sections))
	if err != nil || other == digest {
		t.Fatalf("a different model digest opened as %#x (err %v); a mismatch must be visible", other, err)
	}
}

// TestOpenRejects covers the envelope-level rejections.
func TestOpenRejects(t *testing.T) {
	good := Seal(42, []Section{{ID: 1, Body: []byte("body")}})
	mutate := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "truncated envelope"},
		{"magic only", []byte(Magic), "truncated envelope"},
		{"wrong magic", mutate(func(b []byte) []byte { b[0] = 'X'; return b }), "bad magic"},
		{"wrong format version", mutate(func(b []byte) []byte { b[len(Magic)] = Version + 1; return b }), "unknown version"},
		{"truncated digest", good[:len(Magic)+1+4], "truncated u64"},
		{"truncated body", good[:len(good)-1], "exceeds"},
		{"section count overflow", mutate(func(b []byte) []byte { b[len(Magic)+1+8] = 0x7F; return b }), "exceeds"},
		{"trailing bytes", append(append([]byte(nil), good...), 0), "trailing bytes"},
		{"non-minimal section count", mutate(func(b []byte) []byte {
			at := len(Magic) + 1 + 8
			return append(append(append([]byte(nil), b[:at]...), 0x81, 0x00), b[at+1:]...)
		}), "bad varint"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, secs, err := Open(tc.data)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Open = %v, want an error containing %q", err, tc.want)
			}
			if secs != nil {
				t.Fatal("a rejected envelope still returned sections")
			}
		})
	}
}

// TestWriteFileAtomic: a successful write replaces the file and leaves no
// temporary behind; a failed one leaves the previous checkpoint intact,
// byte for byte, and cleans up after itself.
func TestWriteFileAtomic(t *testing.T) {
	entries := func(dir string) []string {
		des, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, de := range des {
			names = append(names, de.Name())
		}
		return names
	}

	t.Run("replace", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "campaign.ckpt")
		for _, data := range [][]byte{[]byte("first"), []byte("second, longer"), {}} {
			if err := WriteFileAtomic(path, data); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(path)
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("read back %q (err %v), want %q", got, err, data)
			}
		}
		if names := entries(dir); len(names) != 1 {
			t.Fatalf("directory holds %v, want only the checkpoint", names)
		}
	})

	// The temporary's name is the checkpoint's plus a suffix; a checkpoint
	// name just under the file-name limit makes creating it fail while the
	// previous checkpoint itself is a perfectly good file. (Permission
	// tricks do not fail for root, which is what CI runs as.)
	t.Run("temp file cannot be created", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, strings.Repeat("c", 250))
		if err := os.WriteFile(path, []byte("previous"), 0o644); err != nil {
			t.Skipf("file system refuses a 250-byte name: %v", err)
		}
		if err := WriteFileAtomic(path, []byte("new")); err == nil {
			t.Fatal("write succeeded; the test's failure injection does not work on this file system")
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != "previous" {
			t.Fatalf("previous checkpoint damaged: %q (err %v)", got, err)
		}
		if names := entries(dir); len(names) != 1 {
			t.Fatalf("failed write left debris: %v", names)
		}
	})

	// The last step, the rename, fails when the destination is a non-empty
	// directory; the fully written temporary must be removed again.
	t.Run("rename refused", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "campaign.ckpt")
		if err := os.Mkdir(path, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(path, "keep"), []byte("previous"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := WriteFileAtomic(path, []byte("new")); err == nil {
			t.Fatal("renaming a file over a non-empty directory succeeded")
		}
		if got, err := os.ReadFile(filepath.Join(path, "keep")); err != nil || string(got) != "previous" {
			t.Fatalf("destination damaged: %q (err %v)", got, err)
		}
		if names := entries(dir); len(names) != 1 {
			t.Fatalf("failed write left debris: %v", names)
		}
	})
}

// fieldState is a target-shaped struct covering every field constructor.
type fieldState struct {
	flag    bool
	flags   [3]bool
	seq     uint8
	addr    uint16
	signed  [2]int16
	analog  [2]int32
	wide    uint32
	n       int
	clock   uint64
	last    []byte
	bank    [4]byte
	table   map[string][]byte
	classes map[uint8]uint8
	lists   map[string][]string
}

func (s *fieldState) fields() []Field {
	u8 := WordCodec[uint8]()
	return []Field{
		Bool(&s.flag), Bools(s.flags[:]), Uint(&s.seq), Uint(&s.addr), Uints(s.signed[:]), Uints(s.analog[:]),
		Uint(&s.wide), Int(&s.n), U64(&s.clock), Blob(&s.last), FixedBlob(s.bank[:]),
		Map(&s.table, StringCodec, BlobCodec), Map(&s.classes, u8, u8), Map(&s.lists, StringCodec, ListCodec(StringCodec)),
	}
}

// layerState is a layer-shaped struct covering the table and record
// constructors: two parallel slices, an optional row, a cursor into a
// queue, and a list of records.
type layerState struct {
	sent  []uint64
	seen  []bool
	row   []uint32
	queue [][]byte
	cur   int
	items []item
}

type item struct {
	name string
	hits uint64
}

func (s *layerState) fields() []Field {
	return []Field{
		Dim(len(s.sent), "rows"),
		Rows(len(s.sent), func(i int) []Field { return []Field{Uint(&s.sent[i]), Bool(&s.seen[i])} }),
		Optional(func() bool { return s.row != nil }, func(on bool) error {
			s.row = nil
			if on {
				s.row = make([]uint32, 2)
			}
			return nil
		}, func() []Field { return []Field{Uints(s.row)} }),
		Value(&s.queue, ListCodec(BlobCodec)),
		Bounded(&s.cur, func() int { return len(s.queue) }, "cursor"),
		Value(&s.items, ListCodec(Record(func(it *item) []Field {
			return []Field{Value(&it.name, StringCodec), Uint(&it.hits)}
		}))),
	}
}

// TestLayerFieldsRoundTrip: Rows interleaves parallel slices element by
// element, Optional writes its presence byte before the part, and Record
// walks one element's fields — all matching the hand-written layout, and
// restoring to the identical bytes.
func TestLayerFieldsRoundTrip(t *testing.T) {
	orig := &layerState{
		sent: []uint64{1 << 40, 7}, seen: []bool{true, false}, row: []uint32{1 << 31, 2},
		queue: [][]byte{{1}, {2, 3}}, cur: 2, items: []item{{"a", 1 << 63}, {"b", 0}},
	}
	var w Writer
	SnapshotFields(&w, orig.fields())

	var want Writer
	want.Int(2)
	want.Uvarint(1 << 40)
	want.Bool(true)
	want.Uvarint(7)
	want.Bool(false)
	want.Bool(true)
	want.Uvarint(1 << 31)
	want.Uvarint(2)
	want.Int(2)
	want.Blob([]byte{1})
	want.Blob([]byte{2, 3})
	want.Int(2)
	want.Int(2)
	want.String("a")
	want.Uvarint(1 << 63)
	want.String("b")
	want.Uvarint(0)
	if !bytes.Equal(w.Data(), want.Data()) {
		t.Fatalf("field list wrote\n %x\nwant the hand-written layout\n %x", w.Data(), want.Data())
	}

	got := &layerState{sent: make([]uint64, 2), seen: make([]bool, 2), row: []uint32{9}}
	if err := RestoreFields(NewReader(w.Data()), got.fields()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, orig) {
		t.Fatalf("restored %+v, want %+v", got, orig)
	}
	orig.row = nil
	w = Writer{}
	SnapshotFields(&w, orig.fields())
	if err := RestoreFields(NewReader(w.Data()), got.fields()); err != nil || got.row != nil {
		t.Fatalf("an absent optional part restored to %v (err %v), want nil", got.row, err)
	}
}

// label is a named string type, as a String field may carry.
type label string

// TestScalarFieldsAllocFree: declaring a scalar field allocates nothing, so
// a layer that rebuilds its field list at every checkpoint pays only for
// the list itself.
func TestScalarFieldsAllocFree(t *testing.T) {
	var (
		b    bool
		n    int
		u    uint64
		word uint32
		kind label
		sink Field
	)
	if allocs := testing.AllocsPerRun(100, func() {
		sink = Bool(&b)
		sink = Int(&n)
		sink = U64(&u)
		sink = Uint(&word)
		sink = String(&kind)
	}); allocs != 0 {
		t.Fatalf("declaring five scalar fields allocated %v times, want 0", allocs)
	}
	_ = sink
}

// TestListDecodeAllocatesOnce: decoding an n-element list allocates its
// slice once, presized from the bounded count, rather than growing it.
func TestListDecodeAllocatesOnce(t *testing.T) {
	words := make([]uint16, 1000)
	for i := range words {
		words[i] = uint16(i * 61)
	}
	c := ListCodec(WordCodec[uint16]())
	var w Writer
	c.Put(&w, words)
	var (
		r   Reader
		got []uint16
	)
	if allocs := testing.AllocsPerRun(100, func() {
		r = *NewReader(w.Data())
		got = c.Get(&r)
	}); allocs != 1 {
		t.Fatalf("decoding a %d-word list allocated %v times, want 1", len(words), allocs)
	}
	if err := r.Finish(); err != nil || !slices.Equal(got, words) {
		t.Fatalf("decoded list differs (err %v)", err)
	}
}

// TestFieldsRoundTrip: a field list restores exactly what it wrote —
// signed words through their bit patterns, maps through sorted keys — and
// re-snapshots to the identical bytes, which match the hand-written
// layout the lists replaced.
func TestFieldsRoundTrip(t *testing.T) {
	orig := &fieldState{
		flag: true, flags: [3]bool{true, false, true}, seq: 255, addr: 65535,
		signed: [2]int16{-1, -32768}, analog: [2]int32{-2, 1 << 30}, wide: 1<<32 - 1, n: 1<<31 - 1, clock: ^uint64(0),
		last: []byte{1, 2, 3}, bank: [4]byte{9, 8, 7, 6},
		table:   map[string][]byte{"b": {2}, "a": nil, "c": {3, 3}},
		classes: map[uint8]uint8{200: 1, 3: 2},
		lists:   map[string][]string{"x": {"m1", "m2"}, "e": nil},
	}
	var w Writer
	SnapshotFields(&w, orig.fields())

	var want Writer
	want.Bool(true)
	for _, b := range orig.flags {
		want.Bool(b)
	}
	for _, v := range []uint64{255, 65535, 0xffff, 0x8000, 0xfffffffe, 1 << 30, 1<<32 - 1, 1<<31 - 1} {
		want.Uvarint(v)
	}
	want.U64(^uint64(0))
	want.Blob([]byte{1, 2, 3})
	want.Blob([]byte{9, 8, 7, 6})
	want.Int(3)
	for _, k := range []string{"a", "b", "c"} {
		want.String(k)
		want.Blob(orig.table[k])
	}
	for _, v := range []uint64{2, 3, 2, 200, 1} {
		want.Uvarint(v)
	}
	want.Int(2)
	want.String("e")
	want.Int(0)
	want.String("x")
	want.Int(2)
	want.String("m1")
	want.String("m2")
	if !bytes.Equal(w.Data(), want.Data()) {
		t.Fatalf("field list wrote\n %x\nwant the hand-written layout\n %x", w.Data(), want.Data())
	}

	got := &fieldState{}
	if err := RestoreFields(NewReader(w.Data()), got.fields()); err != nil {
		t.Fatal(err)
	}
	var again Writer
	SnapshotFields(&again, got.fields())
	if !bytes.Equal(again.Data(), w.Data()) {
		t.Fatalf("restore → snapshot differs:\n %x\n %x", again.Data(), w.Data())
	}
	if got.signed != orig.signed || got.analog != orig.analog || got.classes[200] != 1 || len(got.lists["x"]) != 2 {
		t.Fatalf("restored %+v, want %+v", got, orig)
	}
}

// TestFieldsReject: what the typed fields refuse beyond the Reader's own
// checks.
func TestFieldsReject(t *testing.T) {
	enc := func(f func(w *Writer)) []byte {
		var w Writer
		f(&w)
		return w.Data()
	}
	var (
		b16   [1]int16
		bank  [4]byte
		table map[string][]byte
	)
	for _, tc := range []struct {
		name  string
		data  []byte
		field Field
		want  string
	}{
		{"word wider than its signed bank", enc(func(w *Writer) { w.Uvarint(1 << 16) }), Uints(b16[:]), "overflows 16 bits"},
		{"fixed blob of the wrong size", enc(func(w *Writer) { w.Blob([]byte{1, 2, 3}) }), FixedBlob(bank[:]), "bank holds 4"},
		{"map key repeats", enc(func(w *Writer) { w.Int(2); w.String("a"); w.Blob(nil); w.String("a"); w.Blob(nil) }), Map(&table, StringCodec, BlobCodec), "does not ascend"},
		{"map keys out of order", enc(func(w *Writer) { w.Int(2); w.String("b"); w.Blob(nil); w.String("a"); w.Blob(nil) }), Map(&table, StringCodec, BlobCodec), "does not ascend"},
		{"map count beyond input", enc(func(w *Writer) { w.Int(9) }), Map(&table, StringCodec, BlobCodec), "count 9 exceeds"},
		{"dimension other than the live one", enc(func(w *Writer) { w.Int(3) }), Dim(4, "rows"), "3 rows stored, 4 live"},
		{"bounded int above its bound", enc(func(w *Writer) { w.Int(5) }), Bounded(new(int), func() int { return 4 }, "cursor"), "cursor 5 exceeds 4"},
		{"optional part refused", enc(func(w *Writer) { w.Bool(true) }), Optional(nil, func(bool) error { return errors.New("no part") }, nil), "no part"},
		{"record field over-wide", enc(func(w *Writer) { w.Int(1); w.Uvarint(1 << 8) }), Value(new([]uint8), ListCodec(Record(func(p *uint8) []Field { return []Field{Uint(p)} }))), "overflows 8 bits"},
	} {
		err := RestoreFields(NewReader(tc.data), []Field{tc.field})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
	if bank != [4]byte{} || table != nil {
		t.Errorf("a refused restore wrote into its target: bank %v, table %v", bank, table)
	}
}
