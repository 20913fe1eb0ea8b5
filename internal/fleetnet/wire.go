// Package fleetnet extends the fleet's batched merge protocol across
// hosts: nodes exchange deltas over TCP — virgin coverage bitmaps as
// dirty-word deltas, corpus puzzles as journal tails with resumable
// cursors, crash records as an idempotent dedup stream. The merge
// semantics are exactly the in-process Fleet's (every connection speaks to
// its local state through the same core.SyncPeer path worker engines use);
// this package only adds framing, transport, topology, and reconnect
// handling.
//
// One node type, Node, speaks one session protocol: an optional accept
// loop serving inbound peers, plus uplinks to the peers in its book. Each
// link keeps its own peerSession (shadow bitmap, journal cursors, crash
// watermarks) — a vector of cursors per node, one per peer. A topology is
// a choice of shapes:
//
//   - hub: a node that listens and has no peers, serving one campaign's
//     shared state (core.SyncState);
//   - leaf: a node with one static peer and no listener, running a local
//     fleet that syncs with its hub every N executions;
//   - mesh node: both, so the fleet has no designated hub. The handshake
//     exchanges peer addresses, so one seed address bootstraps a whole
//     mesh.
//
// # Wire protocol
//
// Every frame is length-prefixed: a 4-byte big-endian payload length, one
// type byte, then the payload. Payloads are written and read by the repo's
// one binary codec (internal/checkpoint): canonical uvarints, uvarint-length
// byte strings, counts bounded by the bytes received, trailing bytes
// refused. The session is strictly request/response, dialer-driven:
//
//	dialer → acceptor   hello      magic, version, node id, target, model
//	                               digest, resume cursor into the
//	                               acceptor's journal, advertise address,
//	                               known peer addresses
//	acceptor → dialer   helloAck   negotiated version, acceptor model
//	                               digest, acceptor id, known peer
//	                               addresses
//	dialer → acceptor   sync       dialer stats, virgin delta, puzzle
//	                               delta, crash records, journal cursor
//	acceptor → dialer   syncAck    virgin delta, puzzle delta (from the
//	                               dialer's cursor), crash records, new
//	                               cursor, fleet stats
//	either side         error      human-readable reason; sender closes
//
// # Version negotiation
//
// This build speaks exactly one protocol version (ProtocolVersion). A
// dialer advertises the highest version it speaks; the acceptor refuses
// anything below its own with an error frame and otherwise answers with
// its own, and the dialer requires that answer to be the version it
// speaks. An older peer is therefore refused with a clear error rather
// than misdecoding frames, and a future one is served at this version.
//
// # Determinism
//
// A networked campaign is not bit-for-bit reproducible — sync timing
// depends on the network — but it preserves the same convergence guarantee
// as the in-process fleet: all exchanged state is monotonic (bitmap union,
// never-evicting journal merges, idempotent crash absorption), so any
// interleaving, duplication, or replay of sync windows yields the same
// final merged state for the same executed work. That is also the mesh
// convergence argument: duplicate delivery over redundant links (a puzzle
// arriving via two paths) merges to the same state as single delivery, so
// any connected topology — ring, star, full mesh, or one healing after a
// partition — converges to the union of all nodes' work.
package fleetnet

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// ProtocolVersion is the one protocol version this build speaks; see the
// package comment for the negotiation rule. (v2 added the peer-exchange
// fields to hello/helloAck; v3 declared session-sequence corpus entries —
// reserved "seq\x00" signature namespace, versioned session-codec Data —
// which ride the generic puzzle delta with no frame-layout change.)
const ProtocolVersion = 3

// magic opens every hello frame; it rejects accidental connections from
// non-fleetnet clients before any allocation-heavy decoding.
const magic = "PSFN"

// maxFrame bounds a single frame's payload. The largest legitimate frame is
// a full-corpus replay after a reconnect; 64 MiB is far above any corpus
// this repository produces while still rejecting nonsense lengths from a
// corrupt stream.
const maxFrame = 64 << 20

// maxHandshake bounds a hello or helloAck payload. The acceptor reads the
// hello before it knows who the peer is, so the bound sits far below
// maxFrame; a maxPeerAddrs-long book of maximal host:port addresses still
// fits.
const maxHandshake = 1 << 20

// readChunk is the first allocation for a frame payload; larger payloads
// grow by doubling as their bytes arrive.
const readChunk = 64 << 10

// Frame types.
const (
	frameHello    = byte(1)
	frameHelloAck = byte(2)
	frameSync     = byte(3)
	frameSyncAck  = byte(4)
	frameError    = byte(5)
)

// writeFrame sends one length-prefixed frame.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame of at most limit bytes, returning its type and
// payload. The buffer grows with the bytes actually received, not with
// the length the peer announced: a peer that claims a huge frame and then
// stalls holds at most readChunk bytes of this node's memory.
func readFrame(r io.Reader, limit int) (byte, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	size := binary.BigEndian.Uint32(hdr[:])
	if size == 0 || size > uint32(limit) {
		return 0, nil, fmt.Errorf("fleetnet: frame length %d out of range", size)
	}
	n := int(size)
	buf := make([]byte, 0, min(n, readChunk))
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n-len(buf), len(buf)))
		}
		end := min(n, cap(buf))
		if _, err := io.ReadFull(r, buf[len(buf):end]); err != nil {
			return 0, nil, err
		}
		buf = buf[:end]
	}
	return buf[0], buf[1:], nil
}

// sendError best-effort ships an error frame before the sender closes the
// connection, so the far side logs a reason instead of a bare EOF.
func sendError(w io.Writer, format string, args ...any) {
	writeFrame(w, frameError, errorFrame(fmt.Sprintf(format, args...))) //nolint:errcheck — already tearing down
}

// negotiate applies the version rule from the package comment to a peer's
// advertised version and returns the session version.
func negotiate(peer uint64) (uint64, error) {
	if peer < ProtocolVersion {
		return 0, fmt.Errorf("fleetnet: peer speaks protocol %d, this build needs %d", peer, ProtocolVersion)
	}
	return ProtocolVersion, nil
}
