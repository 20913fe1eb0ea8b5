package fleetnet

import (
	"context"
	"fmt"
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/coverage"
	"repro/internal/crash"
)

// uplink is one outbound link of a node: the connection, the peerSession
// that makes deltas deltas, and the link's retry accounting. Its methods
// run on whichever goroutine owns the node's uplinks (see Node).
// Disconnects are tolerated: the next round redials and resumes — the
// cursor into the remote journal survives locally, and everything
// re-pushed merges idempotently on the remote.
type uplink struct {
	n      *Node
	addr   string
	static bool
	conn   net.Conn
	// session is the per-peer sync state for this link: the shadow of what
	// the remote holds, the cursors into both journals, and the crash
	// watermarks. Reset on reconnect (remoteCursor excepted) — the
	// replacement connection's far side may be a restarted process that
	// lost this session's context.
	session *peerSession
	fails   int   // consecutive failed attempts; a learned peer is forgotten at maxPeerFails
	skip    int   // rounds to sit out before the next redial
	err     error // the latest failure, reported by the rounds the link sits out
}

// newUplink registers a link to addr with the shared corpus journal, so
// compaction keeps everything it has yet to deliver from the start.
func (n *Node) newUplink(addr string, static bool) *uplink {
	u := &uplink{n: n, addr: addr, static: static, session: newPeerSession()}
	n.cfg.State.Exchange(core.ExchangeFunc(func(_ *coverage.Virgin, corp *corpus.Corpus, _ *crash.Bank) error {
		u.session.register(corp, 0)
		return nil
	}))
	return u
}

// sync runs one exchange over the link, dialing first if it is down. On
// any failure the session is reset (the next attempt redials and
// re-pushes from scratch; all exchanged state merges idempotently). A
// cancellation that lands mid-exchange interrupts the dial and any blocked
// frame I/O promptly instead of waiting out the frame timeout.
func (u *uplink) sync(ctx context.Context, fig pushFigures) error {
	if u.conn == nil {
		if err := u.dial(ctx); err != nil {
			return err
		}
	}
	unwatch := watchContext(ctx, u.conn)
	defer unwatch()
	ack, err := u.roundTrip(ctx, u.buildPush(fig))
	if err == nil {
		err = u.applyAck(ack)
	}
	if err != nil {
		u.reset()
		return err
	}
	n := u.n
	n.mu.Lock()
	n.fleetExecs, n.fleetEdges, n.fleetLeaves = int(ack.fleetExecs), int(ack.fleetEdges), int(ack.leaves)
	n.synced = true
	n.mu.Unlock()
	return nil
}

// pushFigures is what a push reports of the local fleet, captured at
// quiescence (Node.Capture): a round overlapping a window never reads it.
type pushFigures struct {
	execs, hangs int
	crashes      []*crash.Record
}

func captureFigures(f *core.Fleet) pushFigures {
	bank := f.Crashes()
	return pushFigures{execs: f.Execs(), hangs: bank.Hangs(), crashes: bank.Records()}
}

// buildPush assembles one push frame: the captured figures and everything
// the remote is not known to hold. The deltas are built under the state
// lock; network I/O stays outside it.
func (u *uplink) buildPush(fig pushFigures) *syncFrame {
	req := &syncFrame{
		execs:   uint64(fig.execs),
		hangs:   uint64(fig.hangs),
		cursor:  u.session.remoteCursor,
		crashes: u.session.crashDelta(fig.crashes),
	}
	u.n.cfg.State.Exchange(core.ExchangeFunc(func(virgin *coverage.Virgin, corp *corpus.Corpus, _ *crash.Bank) error {
		// A Close released the journal registration so a dead link never
		// pins compaction; a sync after Close is a revival, so re-register
		// at the saved cursor (clamped into the live journal).
		u.session.register(corp, u.session.localCursor)
		req.virginDelta, req.puzzles = u.session.sendDelta(virgin, corp)
		corp.CompactJournal()
		return nil
	}))
	return req
}

// roundTrip ships one push and reads the reply, accounting wire traffic.
func (u *uplink) roundTrip(ctx context.Context, req *syncFrame) (*syncAckFrame, error) {
	u.conn.SetDeadline(time.Now().Add(u.n.cfg.Timeout))
	// The deadline store above can overwrite the context watcher's yank if
	// the cancellation landed while the push was being built; re-checking
	// after the store closes that window (a cancel after this check finds
	// the fresh deadline in place and yanks it normally).
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	push := req.encode()
	u.n.txBytes += len(push) + 5 // frame header + type byte
	if err := writeFrame(u.conn, frameSync, push); err != nil {
		return nil, fmt.Errorf("fleetnet: push to %s: %w", u.addr, err)
	}
	typ, payload, err := readFrame(u.conn, maxFrame)
	if err != nil {
		return nil, fmt.Errorf("fleetnet: read reply from %s: %w", u.addr, err)
	}
	u.n.rxBytes += len(payload) + 5
	if typ == frameError {
		return nil, fmt.Errorf("fleetnet: peer rejected sync: %s", decodeError(payload))
	}
	if typ != frameSyncAck {
		return nil, fmt.Errorf("fleetnet: expected syncAck, got frame type %d", typ)
	}
	return decodeSyncAck(payload)
}

// applyAck folds one reply into the shared state under the state lock and
// advances the remote-journal cursor.
func (u *uplink) applyAck(ack *syncAckFrame) error {
	err := u.n.cfg.State.Exchange(core.ExchangeFunc(func(virgin *coverage.Virgin, corp *corpus.Corpus, crashes *crash.Bank) error {
		return u.session.absorbDelta(ack.virginDelta, ack.puzzles, ack.crashes, virgin, corp, crashes)
	}))
	if err != nil {
		return err
	}
	u.session.remoteCursor = ack.newCursor
	return nil
}

// dial connects and handshakes. The context interrupts both the TCP
// connect and the handshake frames. A node that does not listen announces
// no advertise address and no peer book: it has nothing to be dialed at.
func (u *uplink) dial(ctx context.Context) error {
	n := u.n
	d := net.Dialer{Timeout: dialTimeout}
	conn, err := d.DialContext(ctx, "tcp", u.addr)
	if err != nil {
		return fmt.Errorf("fleetnet: dial %s: %w", u.addr, err)
	}
	unwatch := watchContext(ctx, conn)
	defer unwatch()
	hello := &helloFrame{
		version:      ProtocolVersion,
		nodeID:       n.cfg.NodeID,
		target:       n.cfg.Target,
		digest:       n.digest,
		resumeCursor: u.session.remoteCursor,
	}
	n.mu.Lock()
	if n.ln != nil {
		hello.advertise, hello.peers = n.advertise, n.knownPeers()
	}
	n.mu.Unlock()
	conn.SetDeadline(time.Now().Add(n.cfg.Timeout))
	// Same deadline-vs-cancel window as roundTrip: the store above could
	// have buried a cancellation that landed while hello was assembled.
	if err := ctx.Err(); err != nil {
		conn.Close()
		return err
	}
	ack, err := handshakeReply(conn, hello)
	if err != nil {
		conn.Close()
		return err
	}
	n.learnPeers(ack.peers...)
	u.conn = conn
	n.cfg.Logf("fleetnet %s: connected to %q at %s (protocol %d)", n.cfg.NodeID, ack.hubID, u.addr, ack.version)
	return nil
}

// handshakeReply sends hello and reads the acceptor's helloAck.
func handshakeReply(conn net.Conn, hello *helloFrame) (*helloAckFrame, error) {
	if err := writeFrame(conn, frameHello, hello.encode()); err != nil {
		return nil, fmt.Errorf("fleetnet: send hello: %w", err)
	}
	typ, payload, err := readFrame(conn, maxHandshake)
	if err != nil {
		return nil, fmt.Errorf("fleetnet: read hello reply: %w", err)
	}
	if typ == frameError {
		return nil, fmt.Errorf("fleetnet: peer refused connection: %s", decodeError(payload))
	}
	if typ != frameHelloAck {
		return nil, fmt.Errorf("fleetnet: expected helloAck, got frame type %d", typ)
	}
	ack, err := decodeHelloAck(payload)
	if err != nil {
		return nil, err
	}
	if ack.version != ProtocolVersion {
		return nil, fmt.Errorf("fleetnet: peer negotiated protocol %d, this build speaks %d", ack.version, ProtocolVersion)
	}
	return ack, nil
}

// reset tears the session down so the next attempt starts fresh. The
// shadow bitmap, local cursor, and sent-crash set rewind to zero — the
// replacement connection's far side may not remember this session, so
// everything is re-pushed and merges idempotently. The remote cursor
// deliberately survives: it indexes remote state, and the remote
// downgrades a stale cursor to a full replay by itself.
func (u *uplink) reset() {
	if u.conn != nil {
		u.conn.Close()
		u.conn = nil
	}
	u.session.resetWire()
}

// close ends the session and unregisters the link from the shared corpus
// journal, so a permanently detached link does not pin journal compaction
// while the campaign keeps fuzzing. A later sync revives it.
func (u *uplink) close() {
	if u.conn != nil {
		u.conn.Close()
		u.conn = nil
	}
	if u.session.journalID >= 0 {
		u.n.cfg.State.Exchange(core.ExchangeFunc(func(_ *coverage.Virgin, corp *corpus.Corpus, _ *crash.Bank) error {
			u.session.unregister(corp)
			return nil
		}))
	}
}
