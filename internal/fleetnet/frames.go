package fleetnet

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/corpus"
	"repro/internal/crash"
	"repro/internal/mem"
)

// This file defines the typed view of each frame payload and its
// encode/decode pair over the repo's one binary codec (internal/checkpoint):
// canonical varints, counts and lengths bounded by the bytes actually
// received, width-checked integers, trailing bytes refused. Decoded strings
// and blobs are copied out of the frame buffer.

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

func (f *helloFrame) encode() []byte {
	var w checkpoint.Writer
	w.Uvarint(f.version)
	w.String(f.nodeID)
	w.String(f.target)
	w.U64(f.digest)
	w.Int(f.resumeCursor)
	w.String(f.advertise)
	addrList.Put(&w, f.peers)
	return append([]byte(magic), w.Data()...)
}

func decodeHello(payload []byte) (*helloFrame, error) {
	if len(payload) < len(magic) || string(payload[:len(magic)]) != magic {
		return nil, fmt.Errorf("fleetnet: bad magic (not a fleetnet client)")
	}
	r := checkpoint.NewReader(payload[len(magic):])
	f := &helloFrame{
		version:      r.Uvarint(),
		nodeID:       r.String(),
		target:       r.String(),
		digest:       r.U64(),
		resumeCursor: r.Int(),
		advertise:    r.String(),
		peers:        readAddrs(r),
	}
	return f, r.Finish()
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

func (f *helloAckFrame) encode() []byte {
	var w checkpoint.Writer
	w.Uvarint(f.version)
	w.U64(f.digest)
	w.String(f.hubID)
	addrList.Put(&w, f.peers)
	return w.Data()
}

func decodeHelloAck(payload []byte) (*helloAckFrame, error) {
	r := checkpoint.NewReader(payload)
	f := &helloAckFrame{version: r.Uvarint(), digest: r.U64(), hubID: r.String(), peers: readAddrs(r)}
	return f, r.Finish()
}

// maxPeerAddrs bounds a peer-exchange list; any sane mesh is orders of
// magnitude smaller, so a bigger count means a corrupt frame.
const maxPeerAddrs = 1024

// addrList writes the peer-address lists of the peer exchange; readAddrs
// reads them, refusing an implausible count before reading any entry.
var addrList = checkpoint.ListCodec(checkpoint.StringCodec)

func readAddrs(r *checkpoint.Reader) (addrs []string) {
	n := r.Count()
	if n > maxPeerAddrs {
		r.Fail(fmt.Errorf("fleetnet: implausible peer count %d", n))
	}
	for len(addrs) < n && r.Err() == nil {
		addrs = append(addrs, r.String())
	}
	return addrs
}

// puzzleList is the corpus delta shared by both sync directions.
var puzzleList = checkpoint.ListCodec(checkpoint.Codec[corpus.Puzzle]{
	Put: func(w *checkpoint.Writer, p corpus.Puzzle) {
		w.String(p.Signature)
		w.String(p.Model)
		w.Blob(p.Data)
	},
	Get: func(r *checkpoint.Reader) corpus.Puzzle {
		return corpus.Puzzle{Signature: r.String(), Model: r.String(), Data: r.Blob()}
	},
})

// crashList is the crash-record delta shared by both sync directions.
// Counts are read with Int: a peer-supplied count of 2^63 or more is a
// malformed frame, never a negative number in the shared bank.
var crashList = checkpoint.ListCodec(checkpoint.Codec[*crash.Record]{
	Put: func(w *checkpoint.Writer, rec *crash.Record) {
		w.String(string(rec.Kind))
		w.String(rec.Site)
		w.Blob(rec.Example)
		w.Int(rec.Count)
		w.Int(rec.FirstExec)
		w.U64(rec.PathSig)
	},
	Get: func(r *checkpoint.Reader) *crash.Record {
		return &crash.Record{
			Kind:      mem.FaultKind(r.String()),
			Site:      r.String(),
			Example:   r.Blob(),
			Count:     r.Int(),
			FirstExec: r.Int(),
			PathSig:   r.U64(),
		}
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

func (f *syncFrame) encode() []byte {
	var w checkpoint.Writer
	w.Uvarint(f.execs)
	w.Uvarint(f.hangs)
	w.Int(f.cursor)
	w.Blob(f.virginDelta)
	puzzleList.Put(&w, f.puzzles)
	crashList.Put(&w, f.crashes)
	return w.Data()
}

func decodeSync(payload []byte) (*syncFrame, error) {
	r := checkpoint.NewReader(payload)
	f := &syncFrame{
		execs:       r.Uvarint(),
		hangs:       r.Uvarint(),
		cursor:      r.Int(),
		virginDelta: r.Blob(),
		puzzles:     puzzleList.Get(r),
		crashes:     crashList.Get(r),
	}
	return f, r.Finish()
}

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

func (f *syncAckFrame) encode() []byte {
	var w checkpoint.Writer
	w.Blob(f.virginDelta)
	puzzleList.Put(&w, f.puzzles)
	crashList.Put(&w, f.crashes)
	w.Int(f.newCursor)
	w.Uvarint(f.fleetExecs)
	w.Uvarint(f.fleetEdges)
	w.Uvarint(f.leaves)
	return w.Data()
}

func decodeSyncAck(payload []byte) (*syncAckFrame, error) {
	r := checkpoint.NewReader(payload)
	f := &syncAckFrame{
		virginDelta: r.Blob(),
		puzzles:     puzzleList.Get(r),
		crashes:     crashList.Get(r),
		newCursor:   r.Int(),
		fleetExecs:  r.Uvarint(),
		fleetEdges:  r.Uvarint(),
		leaves:      r.Uvarint(),
	}
	return f, r.Finish()
}

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
