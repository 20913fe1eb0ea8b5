package fleetnet

import (
	"context"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/coverage"
	"repro/internal/crash"
	"repro/internal/datamodel"
)

// LeafConfig parameterizes a Leaf.
type LeafConfig struct {
	// Fleet is the local campaign this leaf contributes; its shared state
	// is what gets exchanged with the remote node.
	Fleet *core.Fleet
	// Addr is the remote node's host:port.
	Addr string
	// Target and Models identify the campaign; they must match the
	// remote's (verified by the handshake digest).
	Target string
	Models []*datamodel.Model
	// NodeID names this node in the remote's per-peer stats. Defaults to
	// hostname/pid/sequence, which is stable for the leaf's lifetime and
	// distinct for multiple leaves in one process — a restarted leaf
	// process is a new leaf.
	NodeID string
	// Timeout bounds each frame read/write (0 = 30s).
	Timeout time.Duration
	// DialTimeout bounds the TCP connect of a (re)dial (0 = Timeout). The
	// mesh sets a tight value here so one blackholed peer cannot stall a
	// node's whole sync round for a full frame timeout.
	DialTimeout time.Duration
	// Logf receives connection lifecycle messages (nil = no logging).
	Logf func(format string, args ...any)
	// Advertise is the address other nodes can dial this node's accept
	// loop at, announced in the handshake ("" for a plain leaf without
	// one). Set by the mesh for its uplinks.
	Advertise string
	// KnownPeers, when non-nil, supplies the peer addresses announced in
	// the hello — the dialer half of the mesh peer exchange.
	KnownPeers func() []string
	// LearnPeer, when non-nil, receives every peer address the remote
	// shares in its helloAck.
	LearnPeer func(addr string)
}

// Leaf connects one local Fleet to a remote node (a hub, or in mesh mode
// any peer's accept loop — a mesh uplink is a Leaf). All methods must be
// called from the fleet's driving goroutine (a Leaf adds networking to the
// campaign loop, not concurrency). Disconnects are tolerated: the leaf
// keeps fuzzing, and the next Sync redials and resumes — its cursor into
// the remote journal survives locally, and everything it re-pushes merges
// idempotently on the remote.
type Leaf struct {
	cfg    LeafConfig
	state  *core.SyncState
	digest uint64

	conn net.Conn
	// session is the per-peer sync state for this uplink: the shadow of
	// what the remote holds, the cursors into both journals, and the
	// crash watermarks. Reset on reconnect (remoteCursor excepted) — the
	// replacement connection's far side may be a restarted process that
	// lost this session's context.
	session *peerSession

	// Fleet-wide figures from the latest ack, for progress displays.
	// Guarded by statsMu: FleetStats is documented safe to call from a
	// display goroutine while the driving goroutine syncs.
	statsMu                        sync.Mutex
	fleetExecs, fleetEdges, leaves int
	synced                         bool

	// Cumulative wire traffic (frame payloads + headers), for the sync-cost
	// benchmark.
	txBytes, rxBytes int
}

// NewLeaf validates the configuration and registers the uplink with the
// fleet's shared corpus. No connection is made until the first Sync.
func NewLeaf(cfg LeafConfig) (*Leaf, error) {
	if cfg.Fleet == nil {
		return nil, fmt.Errorf("fleetnet: LeafConfig.Fleet is required")
	}
	if cfg.Addr == "" {
		return nil, fmt.Errorf("fleetnet: LeafConfig.Addr is required")
	}
	if cfg.Target == "" {
		return nil, fmt.Errorf("fleetnet: LeafConfig.Target is required")
	}
	if cfg.NodeID == "" {
		host, _ := os.Hostname()
		cfg.NodeID = fmt.Sprintf("%s/%d/%d", host, os.Getpid(), atomic.AddUint32(&leafSeq, 1))
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = cfg.Timeout
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	l := &Leaf{
		cfg:     cfg,
		state:   cfg.Fleet.State(),
		digest:  ModelDigest(cfg.Target, cfg.Models),
		session: newPeerSession(),
	}
	l.state.Exchange(core.ExchangeFunc(func(_ *coverage.Virgin, corp *corpus.Corpus, _ *crash.Bank) error {
		l.session.register(corp, 0)
		return nil
	}))
	return l, nil
}

// Sync runs one merge window with the remote: flush the local workers into
// the shared state, exchange deltas over the wire, fold the reply back,
// and flush again so the workers see the remote material immediately. On
// any failure the session is reset (the next Sync redials and re-pushes
// from scratch; all exchanged state merges idempotently) and the error is
// returned for logging — a leaf should keep fuzzing regardless.
func (l *Leaf) Sync() error { return l.SyncContext(context.Background()) }

// SyncContext is Sync under a context: an already-canceled context skips
// the exchange entirely, and a cancellation that lands mid-window
// interrupts the dial and any blocked frame I/O promptly (the session
// resets, exactly like a transport failure) instead of waiting out the
// frame timeout — what makes session teardown prompt for the public
// Run API.
func (l *Leaf) SyncContext(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	l.cfg.Fleet.SyncAll()
	if l.conn == nil {
		if err := l.dial(ctx); err != nil {
			return err
		}
	}
	unwatch := watchContext(ctx, l.conn)
	defer unwatch()
	req := l.buildPush()
	ack, err := l.roundTrip(ctx, req)
	if err != nil {
		l.reset()
		return err
	}
	if err := l.applyAck(ack); err != nil {
		l.reset()
		return err
	}
	l.statsMu.Lock()
	l.fleetExecs, l.fleetEdges, l.leaves = int(ack.fleetExecs), int(ack.fleetEdges), int(ack.leaves)
	l.synced = true
	l.statsMu.Unlock()

	l.cfg.Fleet.SyncAll()
	return nil
}

// buildPush assembles one push frame: everything the remote is not known
// to hold. The deltas are built under the state lock; network I/O stays
// outside it.
func (l *Leaf) buildPush() *syncFrame {
	req := &syncFrame{
		execs:  uint64(l.cfg.Fleet.Execs()),
		cursor: l.session.remoteCursor,
	}
	bank := l.cfg.Fleet.Crashes()
	req.hangs = uint64(bank.Hangs())
	req.crashes = l.session.crashDelta(bank.Records())
	l.state.Exchange(core.ExchangeFunc(func(virgin *coverage.Virgin, corp *corpus.Corpus, _ *crash.Bank) error {
		// A Close released the journal registration so a dead leaf never
		// pins compaction; a Sync after Close is a revival, so re-register
		// at the saved cursor (clamped into the live journal).
		l.session.register(corp, l.session.localCursor)
		req.virginDelta, req.puzzles = l.session.sendDelta(virgin, corp)
		corp.CompactJournal()
		return nil
	}))
	return req
}

// roundTrip ships one push and reads the reply, accounting wire traffic.
func (l *Leaf) roundTrip(ctx context.Context, req *syncFrame) (*syncAckFrame, error) {
	l.conn.SetDeadline(time.Now().Add(l.cfg.Timeout))
	// The deadline store above can overwrite the context watcher's yank if
	// the cancellation landed while the push was being built; re-checking
	// after the store closes that window (a cancel after this check finds
	// the fresh deadline in place and yanks it normally).
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	push := req.encode()
	l.txBytes += len(push) + 5 // frame header + type byte
	if err := writeFrame(l.conn, frameSync, push); err != nil {
		return nil, fmt.Errorf("fleetnet: push to %s: %w", l.cfg.Addr, err)
	}
	typ, payload, err := readFrame(l.conn)
	if err != nil {
		return nil, fmt.Errorf("fleetnet: read reply from %s: %w", l.cfg.Addr, err)
	}
	l.rxBytes += len(payload) + 5
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
func (l *Leaf) applyAck(ack *syncAckFrame) error {
	err := l.state.Exchange(core.ExchangeFunc(func(virgin *coverage.Virgin, corp *corpus.Corpus, crashes *crash.Bank) error {
		return l.session.absorbDelta(ack.virginDelta, ack.puzzles, ack.crashes, virgin, corp, crashes)
	}))
	if err != nil {
		return err
	}
	l.session.remoteCursor = ack.newCursor
	return nil
}

// dial connects and handshakes. The context interrupts both the TCP
// connect and the handshake frames.
func (l *Leaf) dial(ctx context.Context) error {
	d := net.Dialer{Timeout: l.cfg.DialTimeout}
	conn, err := d.DialContext(ctx, "tcp", l.cfg.Addr)
	if err != nil {
		return fmt.Errorf("fleetnet: dial %s: %w", l.cfg.Addr, err)
	}
	unwatch := watchContext(ctx, conn)
	defer unwatch()
	hello := &helloFrame{
		version:      ProtocolVersion,
		nodeID:       l.cfg.NodeID,
		target:       l.cfg.Target,
		digest:       l.digest,
		resumeCursor: l.session.remoteCursor,
		advertise:    l.cfg.Advertise,
	}
	if l.cfg.KnownPeers != nil {
		hello.peers = l.cfg.KnownPeers()
	}
	conn.SetDeadline(time.Now().Add(l.cfg.Timeout))
	// Same deadline-vs-cancel window as roundTrip: the store above could
	// have buried a cancellation that landed while hello was assembled.
	if err := ctx.Err(); err != nil {
		conn.Close()
		return err
	}
	if err := writeFrame(conn, frameHello, hello.encode()); err != nil {
		conn.Close()
		return fmt.Errorf("fleetnet: send hello: %w", err)
	}
	typ, payload, err := readFrame(conn)
	if err != nil {
		conn.Close()
		return fmt.Errorf("fleetnet: read hello reply: %w", err)
	}
	if typ == frameError {
		conn.Close()
		return fmt.Errorf("fleetnet: peer refused connection: %s", decodeError(payload))
	}
	if typ != frameHelloAck {
		conn.Close()
		return fmt.Errorf("fleetnet: expected helloAck, got frame type %d", typ)
	}
	ack, err := decodeHelloAck(payload)
	if err != nil {
		conn.Close()
		return err
	}
	if ack.version != ProtocolVersion {
		conn.Close()
		return fmt.Errorf("fleetnet: peer negotiated protocol %d, this build speaks %d", ack.version, ProtocolVersion)
	}
	if l.cfg.LearnPeer != nil {
		for _, a := range ack.peers {
			l.cfg.LearnPeer(a)
		}
	}
	l.conn = conn
	l.cfg.Logf("fleetnet leaf: connected to %q at %s (protocol %d)", ack.hubID, l.cfg.Addr, ack.version)
	return nil
}

// reset tears the session down so the next Sync starts fresh. The shadow
// bitmap, local cursor, and sent-crash set rewind to zero — the replacement
// connection's far side may not remember this session, so everything is
// re-pushed and merges idempotently. The remote cursor deliberately
// survives: it indexes remote state, and the remote downgrades a stale
// cursor to a full replay by itself.
func (l *Leaf) reset() {
	if l.conn != nil {
		l.conn.Close()
		l.conn = nil
	}
	l.session.resetWire()
}

// Close ends the session and unregisters the uplink from the fleet's
// shared corpus journal, so a permanently detached leaf does not pin
// journal compaction while the campaign keeps fuzzing. The fleet and its
// results are untouched, and a later Sync revives the leaf: it
// re-registers (falling back to a full journal replay if its tail was
// compacted away) and reconnects.
func (l *Leaf) Close() error {
	if l.conn != nil {
		l.conn.Close()
		l.conn = nil
	}
	if l.session.journalID >= 0 {
		l.state.Exchange(core.ExchangeFunc(func(_ *coverage.Virgin, corp *corpus.Corpus, _ *crash.Bank) error {
			l.session.unregister(corp)
			return nil
		}))
	}
	return nil
}

// Addr returns the remote address this leaf dials.
func (l *Leaf) Addr() string { return l.cfg.Addr }

// Connected reports whether a session is currently established.
func (l *Leaf) Connected() bool { return l.conn != nil }

// Traffic returns the cumulative bytes this leaf has sent to and received
// from its remote in sync frames (headers included, handshakes excluded) —
// the measurement behind cmd/bench's fleetnet.bytes_per_window.
func (l *Leaf) Traffic() (tx, rx int) { return l.txBytes, l.rxBytes }

// FleetStats returns the fleet-wide figures from the latest ack — total
// executions the remote knows of, distinct edges in its union map, and
// its connected peers — and whether any ack has arrived yet. Unlike the
// leaf's other methods it is safe to call from any goroutine while the
// driving goroutine syncs (progress displays consume it from event
// loops).
func (l *Leaf) FleetStats() (execs, edges, leaves int, ok bool) {
	l.statsMu.Lock()
	defer l.statsMu.Unlock()
	return l.fleetExecs, l.fleetEdges, l.leaves, l.synced
}

// leafSeq disambiguates default node ids for multiple leaves in one
// process (the loopback examples and tests).
var leafSeq uint32
