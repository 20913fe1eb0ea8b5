package fleetnet

import (
	"bytes"
	"encoding/hex"
	"net"
	"reflect"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/crash"
	"repro/internal/mem"
	"repro/internal/targets"
)

// frameFixture is one frame type under test: a populated value, the bytes
// the parent commit's hand-rolled encoders produced for it, and the
// decode/re-encode pair.
type frameFixture struct {
	name   string
	frame  any
	golden string // hex
	encode func(any) []byte
	decode func([]byte) (any, error)
}

func frameFixtures() []frameFixture {
	puzzles := []corpus.Puzzle{
		{Signature: "sig-1", Model: "ReadHolding", Data: []byte{0x00, 0x01, 0xff}},
		{Signature: "seq\x00abc"},
	}
	crashes := []*crash.Record{{Kind: mem.FaultKind("heap-use-after-free"), Site: "modbus.go:42",
		Example: []byte{0xde, 0xad}, Count: 129, FirstExec: 70000, PathSig: 0x1122334455667788}}
	return []frameFixture{
		{
			name: "hello",
			frame: &helloFrame{version: 3, nodeID: "node-a", target: "libmodbus", digest: 0x0123456789abcdef,
				resumeCursor: 300, advertise: "127.0.0.1:7841", peers: []string{"10.0.0.1:7000", "10.0.0.2:7000"}},
			golden: "5053464e03066e6f64652d61096c69626d6f64627573efcdab8967452301ac020e3132372e302e302e313a37383431020d31302e302e302e313a373030300d31302e302e302e323a37303030",
			encode: func(f any) []byte { return f.(*helloFrame).encode() },
			decode: func(p []byte) (any, error) { return decodeHello(p) },
		},
		{
			name:   "helloAck",
			frame:  &helloAckFrame{version: 3, digest: 0xfedcba9876543210, hubID: "hub-1", peers: []string{"10.0.0.3:7000"}},
			golden: "031032547698badcfe056875622d31010d31302e302e302e333a37303030",
			encode: func(f any) []byte { return f.(*helloAckFrame).encode() },
			decode: func(p []byte) (any, error) { return decodeHelloAck(p) },
		},
		{
			name: "sync",
			frame: &syncFrame{execs: 1 << 20, hangs: 2, cursor: 128, virginDelta: []byte{1, 5, 1, 0, 0, 0, 0, 0, 0, 0},
				puzzles: puzzles, crashes: crashes},
			golden: "8080400280010a0105010000000000000002057369672d310b52656164486f6c64696e67030001ff077365710061626300000113686561702d7573652d61667465722d667265650c6d6f646275732e676f3a343202dead8101f0a2048877665544332211",
			encode: func(f any) []byte { return f.(*syncFrame).encode() },
			decode: func(p []byte) (any, error) { return decodeSync(p) },
		},
		{
			name: "syncAck",
			frame: &syncAckFrame{virginDelta: []byte{0}, puzzles: puzzles, crashes: crashes, newCursor: 16384,
				fleetExecs: 3 << 20, fleetEdges: 180, leaves: 2},
			golden: "010002057369672d310b52656164486f6c64696e67030001ff077365710061626300000113686561702d7573652d61667465722d667265650c6d6f646275732e676f3a343202dead8101f0a20488776655443322118080018080c001b40102",
			encode: func(f any) []byte { return f.(*syncAckFrame).encode() },
			decode: func(p []byte) (any, error) { return decodeSyncAck(p) },
		},
		{
			name:   "error",
			frame:  "model digest mismatch",
			golden: "156d6f64656c20646967657374206d69736d61746368",
			encode: func(f any) []byte { return errorFrame(f.(string)) },
			decode: func(p []byte) (any, error) {
				r := checkpoint.NewReader(p)
				msg := r.String()
				return msg, r.Finish()
			},
		},
	}
}

// TestFrameBytesGolden: the wire did not move when the frames moved onto
// the shared codec — each fixture must encode to the exact bytes captured
// from the hand-rolled encoders it replaced (fleetnet protocol 3).
func TestFrameBytesGolden(t *testing.T) {
	for _, fx := range frameFixtures() {
		if got := hex.EncodeToString(fx.encode(fx.frame)); got != fx.golden {
			t.Errorf("%s encodes to\n %s\nwant\n %s", fx.name, got, fx.golden)
		}
	}
}

// TestFrameCodec: every frame type round-trips, and rejects every proper
// prefix of a valid payload, trailing bytes, and a non-minimal varint.
func TestFrameCodec(t *testing.T) {
	for _, fx := range frameFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			payload := fx.encode(fx.frame)
			got, err := fx.decode(payload)
			if err != nil {
				t.Fatalf("decode of own encoding: %v", err)
			}
			if !reflect.DeepEqual(got, fx.frame) {
				t.Fatalf("round trip changed the frame:\n got %+v\nwant %+v", got, fx.frame)
			}
			if again := fx.encode(got); !bytes.Equal(again, payload) {
				t.Fatalf("re-encoding differs: %x vs %x", again, payload)
			}
			for n := 0; n < len(payload); n++ {
				if _, err := fx.decode(payload[:n]); err == nil {
					t.Errorf("accepted the payload truncated to %d of %d bytes", n, len(payload))
				}
			}
			if _, err := fx.decode(append(append([]byte(nil), payload...), 0)); err == nil {
				t.Error("accepted a trailing byte")
			}
			// Pad the first varint with a redundant continuation byte:
			// same value, non-minimal encoding.
			at := 0
			if fx.name == "hello" {
				at = len(magic)
			}
			for payload[at]&0x80 != 0 {
				at++
			}
			padded := append(append([]byte(nil), payload[:at]...), payload[at]|0x80, 0)
			padded = append(padded, payload[at+1:]...)
			if _, err := fx.decode(padded); err == nil {
				t.Error("accepted a non-minimal varint")
			}
		})
	}
}

// TestFrameCountBounds: an element count is checked against the bytes that
// actually follow it before anything is allocated, and a peer-address list
// additionally against maxPeerAddrs.
func TestFrameCountBounds(t *testing.T) {
	helloWith := func(tail func(w *checkpoint.Writer)) []byte {
		var w checkpoint.Writer
		w.Uvarint(ProtocolVersion)
		w.String("n")
		w.String("t")
		w.U64(1)
		w.Int(0)
		w.String("")
		tail(&w)
		return append([]byte(magic), w.Data()...)
	}
	ackWith := func(tail func(w *checkpoint.Writer)) []byte {
		var w checkpoint.Writer
		w.Uvarint(ProtocolVersion)
		w.U64(1)
		w.String("h")
		tail(&w)
		return w.Data()
	}
	syncWith := func(tail func(w *checkpoint.Writer)) []byte {
		var w checkpoint.Writer
		w.Uvarint(1)
		w.Uvarint(0)
		w.Int(0)
		w.Blob(nil)
		tail(&w)
		return w.Data()
	}
	addrs := func(n int) func(w *checkpoint.Writer) {
		return func(w *checkpoint.Writer) {
			w.Int(n)
			for i := 0; i < n; i++ {
				w.String("")
			}
		}
	}
	huge := func(w *checkpoint.Writer) { w.Uvarint(1 << 40) }
	hello := func(p []byte) error { _, err := decodeHello(p); return err }
	ack := func(p []byte) error { _, err := decodeHelloAck(p); return err }
	sync := func(p []byte) error { _, err := decodeSync(p); return err }
	syncAck := func(p []byte) error { _, err := decodeSyncAck(p); return err }
	for _, tc := range []struct {
		name    string
		payload []byte
		decode  func([]byte) error
		want    string // "" = must decode
	}{
		{"hello peers at the limit", helloWith(addrs(maxPeerAddrs)), hello, ""},
		{"hello peers over the limit", helloWith(addrs(maxPeerAddrs + 1)), hello, "implausible peer count"},
		{"hello peer count beyond input", helloWith(huge), hello, "exceeds"},
		{"helloAck peers over the limit", ackWith(addrs(maxPeerAddrs + 1)), ack, "implausible peer count"},
		{"helloAck peer count beyond input", ackWith(huge), ack, "exceeds"},
		{"sync puzzle count beyond input", syncWith(huge), sync, "exceeds"},
		{"sync crash count beyond input", syncWith(func(w *checkpoint.Writer) { w.Int(0); huge(w) }), sync, "exceeds"},
		{"syncAck blob length beyond input", []byte{0xff, 0x7f, 1, 2}, syncAck, "exceeds"},
	} {
		err := tc.decode(tc.payload)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// hostileSync is a sync payload carrying one crash record, with the journal
// cursor and the record's Count and FirstExec set to peer-chosen 64-bit
// values.
func hostileSync(cursor, count, firstExec uint64) []byte {
	var w checkpoint.Writer
	w.Uvarint(10) // execs
	w.Uvarint(0)  // hangs
	w.Uvarint(cursor)
	w.Blob([]byte{0}) // empty virgin delta
	w.Int(0)          // no puzzles
	w.Int(1)          // one crash record
	w.String(string(mem.SEGV))
	w.String("hostile.site")
	w.Blob([]byte{1})
	w.Uvarint(count)
	w.Uvarint(firstExec)
	w.U64(7)
	return w.Data()
}

// TestHostileCountsRejected is the regression test for a remote panic: a
// crash record whose Count (or FirstExec, or a journal cursor) is 2^63 or
// more used to be cast to a negative int, land in the shared crash bank,
// and panic the node's next checkpoint in Writer.Int. The frame must be
// refused at decode, answered with an error frame, and leave the bank
// untouched.
func TestHostileCountsRejected(t *testing.T) {
	if _, err := decodeSync(hostileSync(5, 3, 17)); err != nil {
		t.Fatalf("the well-formed control frame does not decode: %v", err)
	}
	for name, payload := range map[string][]byte{
		"count":      hostileSync(5, 1<<63, 17),
		"first exec": hostileSync(5, 3, 1<<63),
		"cursor":     hostileSync(1<<63, 3, 17),
	} {
		if _, err := decodeSync(payload); err == nil {
			t.Errorf("decodeSync accepted a %s of 2^63", name)
		}
	}

	// The same record against a live hub, over a real connection.
	tgt, err := targets.New("libmodbus")
	if err != nil {
		t.Fatal(err)
	}
	state := core.NewSyncState(0)
	hub := startHub(t, state, tgt.Models())
	conn, err := net.Dial("tcp", hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := &helloFrame{version: ProtocolVersion, nodeID: "hostile", target: "libmodbus",
		digest: ModelDigest("libmodbus", tgt.Models())}
	if err := writeFrame(conn, frameHello, hello.encode()); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := readFrame(conn, maxFrame); err != nil || typ != frameHelloAck {
		t.Fatalf("handshake reply: type %d, %v", typ, err)
	}
	if err := writeFrame(conn, frameSync, hostileSync(0, 1<<63, 17)); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := readFrame(conn, maxFrame)
	if err != nil || typ != frameError {
		t.Fatalf("reply to the hostile sync: type %d, %v; want an error frame", typ, err)
	}
	t.Logf("hub refused: %s", decodeError(payload))
	if recs := state.CrashRecords(); len(recs) != 0 {
		t.Fatalf("the hostile record reached the shared bank: %+v", recs[0])
	}
}

// FuzzFrameDecode pins the decoders' contract over arbitrary bytes: an
// error or a frame, never a panic; and since the codec is canonical, any
// payload a decoder accepts re-encodes to itself.
func FuzzFrameDecode(f *testing.F) {
	fixtures := frameFixtures()
	for i, fx := range fixtures {
		payload := fx.encode(fx.frame)
		f.Add(uint8(i), payload)
		f.Add(uint8(i), payload[:len(payload)/2])
		f.Add(uint8(i), append([]byte{0x80, 0x00}, payload...))
	}
	f.Add(uint8(2), hostileSync(1<<63, 1<<63, 1<<63))
	f.Add(uint8(3), []byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, kind uint8, payload []byte) {
		fx := fixtures[int(kind)%len(fixtures)]
		frame, err := fx.decode(payload)
		if err != nil {
			return
		}
		if again := fx.encode(frame); !bytes.Equal(again, payload) {
			t.Fatalf("%s: accepted %x but re-encodes it as %x", fx.name, payload, again)
		}
	})
}
