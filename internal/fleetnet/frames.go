package fleetnet

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/corpus"
	"repro/internal/crash"
)

// This file defines the typed view of each frame payload, declared once as
// the ordered field list that the generic encode and decode both walk, over
// the repo's one binary codec (internal/checkpoint): canonical varints,
// counts and lengths bounded by the bytes actually received, width-checked
// integers, trailing bytes refused. Decoded strings and blobs are copied
// out of the frame buffer.

// frame is a payload declared as its fields in wire order.
type frame interface{ fields() []checkpoint.Field }

// encode writes a frame's fields.
func encode(f frame) []byte {
	var w checkpoint.Writer
	checkpoint.SnapshotFields(&w, f.fields())
	return w.Data()
}

// decode reads a whole payload as a frame of type F.
func decode[F any, P interface {
	*F
	frame
}](payload []byte) (*F, error) {
	f := P(new(F))
	r := checkpoint.NewReader(payload)
	if err := checkpoint.RestoreFields(r, f.fields()); err != nil {
		return nil, err
	}
	return (*F)(f), r.Finish()
}

// helloFrame opens a session (dialer → acceptor).
type helloFrame struct {
	version uint64
	nodeID  string // stable per node process; keys the acceptor's per-peer stats
	target  string // protocol target name, must match the acceptor's
	digest  uint64 // model-set digest, must match the acceptor's
	// resumeCursor is the dialer's saved position in the acceptor's corpus
	// journal — how much of the acceptor's corpus it had consumed before a
	// disconnect. Zero for a fresh peer. The acceptor seeds its journal
	// registration from it at handshake time, so compaction is pinned
	// correctly from the moment a resuming peer connects.
	resumeCursor int
	// Peer exchange: the address other nodes can dial this node at ("" for
	// a plain leaf with no accept loop) and the mesh peer addresses it
	// knows, so one seed address bootstraps a whole mesh.
	advertise string
	peers     []string
}

func (f *helloFrame) fields() []checkpoint.Field {
	return []checkpoint.Field{
		checkpoint.Uint(&f.version), checkpoint.String(&f.nodeID), checkpoint.String(&f.target),
		checkpoint.U64(&f.digest), checkpoint.Int(&f.resumeCursor), checkpoint.String(&f.advertise),
		checkpoint.Value(&f.peers, addrList),
	}
}

// encode prefixes the hello's fields with the magic.
func (f *helloFrame) encode() []byte { return append([]byte(magic), encode(f)...) }

func decodeHello(payload []byte) (*helloFrame, error) {
	if len(payload) < len(magic) || string(payload[:len(magic)]) != magic {
		return nil, fmt.Errorf("fleetnet: bad magic (not a fleetnet client)")
	}
	return decode[helloFrame](payload[len(magic):])
}

// helloAckFrame accepts a session (acceptor → dialer).
type helloAckFrame struct {
	version uint64 // negotiated session version
	digest  uint64 // acceptor's model digest, echoed for symmetric diagnostics
	hubID   string
	// peers is the acceptor's known mesh peer set — how a node that
	// bootstrapped from one address learns the rest of the mesh.
	peers []string
}

func (f *helloAckFrame) fields() []checkpoint.Field {
	return []checkpoint.Field{
		checkpoint.Uint(&f.version), checkpoint.U64(&f.digest), checkpoint.String(&f.hubID),
		checkpoint.Value(&f.peers, addrList),
	}
}

func (f *helloAckFrame) encode() []byte { return encode(f) }

func decodeHelloAck(payload []byte) (*helloAckFrame, error) { return decode[helloAckFrame](payload) }

// maxPeerAddrs bounds a peer-exchange list; any sane mesh is orders of
// magnitude smaller, so a bigger count means a corrupt frame.
const maxPeerAddrs = 1024

// addrList is the peer-address list of the peer exchange; reading it
// refuses an implausible count before reading any entry.
var addrList = checkpoint.Codec[[]string]{
	Put: checkpoint.ListCodec(checkpoint.StringCodec).Put,
	Get: func(r *checkpoint.Reader) (addrs []string) {
		n := r.Count()
		if n > maxPeerAddrs {
			r.Fail(fmt.Errorf("fleetnet: implausible peer count %d", n))
		}
		for len(addrs) < n && r.Err() == nil {
			addrs = append(addrs, r.String())
		}
		return addrs
	},
}

// crashList is the crash-record delta shared by both sync directions: each
// record's identity and counts (crash.Record.Fields), no reproducer.
// Counts are read with Int: a peer-supplied count of 2^63 or more is a
// malformed frame, never a negative number in the shared bank.
var crashList = checkpoint.ListCodec(checkpoint.Codec[*crash.Record]{
	Put: func(w *checkpoint.Writer, rec *crash.Record) { checkpoint.SnapshotFields(w, rec.Fields()) },
	Get: func(r *checkpoint.Reader) *crash.Record {
		rec := new(crash.Record)
		r.Fail(checkpoint.RestoreFields(r, rec.Fields()))
		return rec
	},
})

// syncFrame is one push (dialer → acceptor).
type syncFrame struct {
	execs, hangs uint64 // sender totals, absolute (idempotent under resend)
	cursor       int    // where the receiver should read its own journal from
	virginDelta  []byte
	puzzles      []corpus.Puzzle
	crashes      []*crash.Record
}

func (f *syncFrame) fields() []checkpoint.Field {
	return []checkpoint.Field{
		checkpoint.Uint(&f.execs), checkpoint.Uint(&f.hangs), checkpoint.Int(&f.cursor),
		checkpoint.Blob(&f.virginDelta), checkpoint.Value(&f.puzzles, corpus.PuzzleList), checkpoint.Value(&f.crashes, crashList),
	}
}

func (f *syncFrame) encode() []byte { return encode(f) }

func decodeSync(payload []byte) (*syncFrame, error) { return decode[syncFrame](payload) }

// syncAckFrame is the acceptor's reply to one sync.
type syncAckFrame struct {
	virginDelta []byte
	puzzles     []corpus.Puzzle
	crashes     []*crash.Record
	newCursor   int // the dialer's next cursor into the acceptor's journal
	// Fleet-wide figures for dialer-side progress display: total remote
	// executions the acceptor has heard of (its own workers included when
	// it runs a fleet), distinct edges in its union map, and the number of
	// currently connected inbound peers.
	fleetExecs, fleetEdges, leaves uint64
}

func (f *syncAckFrame) fields() []checkpoint.Field {
	return []checkpoint.Field{
		checkpoint.Blob(&f.virginDelta), checkpoint.Value(&f.puzzles, corpus.PuzzleList), checkpoint.Value(&f.crashes, crashList),
		checkpoint.Int(&f.newCursor), checkpoint.Uint(&f.fleetExecs), checkpoint.Uint(&f.fleetEdges), checkpoint.Uint(&f.leaves),
	}
}

func (f *syncAckFrame) encode() []byte { return encode(f) }

func decodeSyncAck(payload []byte) (*syncAckFrame, error) { return decode[syncAckFrame](payload) }

// errorFrame encodes an error frame's payload: the human-readable reason.
func errorFrame(msg string) []byte {
	var w checkpoint.Writer
	w.String(msg)
	return w.Data()
}

// decodeError returns the reason an error frame carries ("" when the frame
// itself is malformed).
func decodeError(payload []byte) string {
	return checkpoint.NewReader(payload).String()
}
