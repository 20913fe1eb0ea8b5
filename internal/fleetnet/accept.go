package fleetnet

import (
	"fmt"
	"net"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/coverage"
	"repro/internal/crash"
	"repro/internal/datamodel"
)

// ModelDigest fingerprints a target's model set for the handshake: both
// ends of a link must be fuzzing the same target with structurally
// identical data models, or their rule signatures would disagree and
// donated puzzles would be garbage. The digest is an FNV-1a walk over the
// target name and every chunk's name, kind, and construction-rule
// signature in tree order.
func ModelDigest(target string, models []*datamodel.Model) uint64 {
	h := mixDigest(digestOffset, target)
	for _, m := range models {
		h = mixDigest(h, m.Name)
		for _, c := range m.Fields {
			h = walkDigest(h, c)
		}
	}
	return h
}

// FNV-1a parameters of ModelDigest.
const (
	digestOffset = 14695981039346656037
	digestPrime  = 1099511628211
)

// mixDigest folds one field into the digest, then a field separator. It
// is the package's one FNV-1a: the redial-jitter seed is drawn through it
// too.
func mixDigest(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= digestPrime
	}
	h ^= 0xff
	h *= digestPrime
	return h
}

// walkDigest folds c's name, kind and rule signature, then its children.
func walkDigest(h uint64, c *datamodel.Chunk) uint64 {
	h = mixDigest(h, c.Name)
	h = mixDigest(h, strconv.Itoa(int(c.Kind)))
	h = mixDigest(h, datamodel.RuleSignature(c))
	for _, ch := range c.Children {
		h = walkDigest(h, ch)
	}
	return h
}

// remoteLeaf is the accept side's per-peer accounting, keyed by the peer's
// self-chosen node id. Totals are absolute figures from the peer's latest
// sync, so reconnects and resends never double-count. gen counts sessions:
// a redial before the previous connection is reaped starts a new session
// under the same id, and only the *current* session's teardown may mark
// the peer disconnected (see Node.handle).
type remoteLeaf struct {
	execs, hangs uint64
	connected    bool
	gen          uint64
	advertise    string // dial-back address from the latest handshake ("" for a peer that does not listen)
}

func (n *Node) acceptLoop(ln net.Listener) {
	defer n.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			n.mu.Lock()
			closed := n.closed
			n.mu.Unlock()
			if !closed {
				n.cfg.Logf("fleetnet %s: accept: %v", n.cfg.NodeID, err)
			}
			return
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			conn.Close()
			return
		}
		n.conns[conn] = struct{}{}
		n.mu.Unlock()
		n.wg.Add(1)
		go n.handle(conn)
	}
}

// connPeer is the acceptor side of one session: the peerSession cursors
// that make deltas deltas, plus the frames of the window in flight. It
// implements core.SyncPeer for the window where a decoded sync frame is
// merged and the reply is built, so a remote peer takes exactly the merge
// path a local worker does.
type connPeer struct {
	nodeID  string
	gen     uint64 // session generation under nodeID; see remoteLeaf.gen
	session *peerSession

	req *syncFrame    // current window's decoded push
	ack *syncAckFrame // reply being built
}

// Exchange merges one peer push into the shared state and builds the reply
// under the same lock — one atomic merge window, exactly like a worker's.
// The reply deltas are built BEFORE the push is absorbed: the journal tail
// then contains only other nodes' puzzles and the bitmap delta only other
// nodes' words, so nothing the peer already knows is echoed back.
func (p *connPeer) Exchange(virgin *coverage.Virgin, corp *corpus.Corpus, crashes *crash.Bank) error {
	req, ack, s := p.req, p.ack, p.session
	// The dialer owns its cursor into our journal — it survives its own
	// session resets where our copy would not — so honor the one it sent.
	s.localCursor = req.cursor
	ack.virginDelta, ack.puzzles = s.sendDelta(virgin, corp)
	// Absorbing the push advances localCursor over the entries it
	// journaled (nothing else can append inside this locked window), so
	// the cursor returned to the dialer skips exactly its own material.
	if err := s.absorbDelta(req.virginDelta, req.puzzles, req.crashes, virgin, corp, crashes); err != nil {
		return err
	}
	ack.crashes = s.crashDelta(crashes.Records())
	ack.newCursor = s.localCursor
	corp.CompactJournal()
	ack.fleetEdges = uint64(virgin.Edges())
	return nil
}

// handle runs one inbound session: handshake, then sync windows until the
// connection drops or the accept side closes.
func (n *Node) handle(conn net.Conn) {
	defer n.wg.Done()
	peer := &connPeer{session: newPeerSession()}
	defer func() {
		conn.Close()
		// A gone peer must not pin journal compaction; if it resumes, the
		// handshake re-registers it at its resume cursor (or the journal
		// fallback replays the full corpus for it).
		if peer.session.journalID >= 0 {
			n.cfg.State.Exchange(core.ExchangeFunc(func(_ *coverage.Virgin, corp *corpus.Corpus, _ *crash.Bank) error {
				peer.session.unregister(corp)
				return nil
			}))
		}
		n.mu.Lock()
		delete(n.conns, conn)
		// Only the session currently owning this node id may report it
		// disconnected: a peer that redialed before this stale connection
		// was reaped has already started generation gen+1, and its live
		// session must keep counting as connected.
		if l, ok := n.leaves[peer.nodeID]; ok && l.gen == peer.gen {
			l.connected = false
		}
		n.mu.Unlock()
	}()

	if err := n.handshake(conn, peer); err != nil {
		n.cfg.Logf("fleetnet %s: handshake from %s: %v", n.cfg.NodeID, conn.RemoteAddr(), err)
		return
	}
	n.cfg.Logf("fleetnet %s: peer %q connected from %s", n.cfg.NodeID, peer.nodeID, conn.RemoteAddr())

	for {
		conn.SetDeadline(time.Now().Add(n.cfg.Timeout))
		typ, payload, err := readFrame(conn, maxFrame)
		if err != nil {
			n.cfg.Logf("fleetnet %s: peer %q: %v", n.cfg.NodeID, peer.nodeID, err)
			return
		}
		switch typ {
		case frameSync:
		case frameError:
			n.cfg.Logf("fleetnet %s: peer %q sent error: %s", n.cfg.NodeID, peer.nodeID, decodeError(payload))
			return
		default:
			sendError(conn, "unexpected frame type %d mid-session", typ)
			return
		}
		req, err := decodeSync(payload)
		if err != nil {
			sendError(conn, "%v", err)
			return
		}
		peer.req = req
		peer.ack = &syncAckFrame{}
		if err := n.cfg.State.Exchange(peer); err != nil {
			n.cfg.Logf("fleetnet %s: peer %q push rejected: %v", n.cfg.NodeID, peer.nodeID, err)
			sendError(conn, "%v", err)
			return
		}
		n.noteLeaf(peer.nodeID, req)
		execs, _, connected := n.RemoteStats()
		if n.cfg.Fleet != nil {
			execs += n.cfg.Fleet.ExecsApprox()
		}
		peer.ack.fleetExecs, peer.ack.leaves = uint64(execs), uint64(connected)
		if err := writeFrame(conn, frameSyncAck, peer.ack.encode()); err != nil {
			n.cfg.Logf("fleetnet %s: peer %q: %v", n.cfg.NodeID, peer.nodeID, err)
			return
		}
	}
}

// handshake validates a hello frame and replies. The hello is read under
// the handshake bound, before the peer is known to be a fleetnet node at
// all. Mismatched target/models — and anything else refused — are
// answered with an error frame so the operator sees the reason on the
// dialing side.
func (n *Node) handshake(conn net.Conn, peer *connPeer) error {
	conn.SetDeadline(time.Now().Add(n.cfg.Timeout))
	typ, payload, err := readFrame(conn, maxHandshake)
	if err != nil {
		sendError(conn, "%v", err)
		return err
	}
	if typ != frameHello {
		sendError(conn, "expected hello, got frame type %d", typ)
		return fmt.Errorf("expected hello, got type %d", typ)
	}
	hello, err := decodeHello(payload)
	if err != nil {
		sendError(conn, "%v", err)
		return err
	}
	version, err := negotiate(hello.version)
	if err != nil {
		sendError(conn, "%v", err)
		return err
	}
	if hello.target != n.cfg.Target {
		err := fmt.Errorf("peer fuzzes target %q, this node fuzzes %q", hello.target, n.cfg.Target)
		sendError(conn, "%v", err)
		return err
	}
	if hello.digest != n.digest {
		err := fmt.Errorf("model digest mismatch (peer %016x, local %016x): data models differ", hello.digest, n.digest)
		sendError(conn, "%v", err)
		return err
	}
	peer.nodeID = hello.nodeID
	n.mu.Lock()
	l, ok := n.leaves[peer.nodeID]
	if !ok {
		l = &remoteLeaf{}
		n.leaves[peer.nodeID] = l
	}
	l.gen++
	peer.gen = l.gen
	l.connected = true
	l.advertise = hello.advertise
	n.mu.Unlock()
	// Seed the journal registration from the resume cursor NOW, before the
	// ack releases the dialer: a resuming peer's tail is pinned against
	// compaction from the moment it connects, not from its first sync.
	n.cfg.State.Exchange(core.ExchangeFunc(func(_ *coverage.Virgin, corp *corpus.Corpus, _ *crash.Bank) error {
		peer.session.register(corp, hello.resumeCursor)
		return nil
	}))
	n.learnPeers(append(hello.peers, hello.advertise)...)
	ack := &helloAckFrame{version: version, digest: n.digest, hubID: n.cfg.NodeID}
	n.mu.Lock()
	ack.peers = n.knownPeers()
	n.mu.Unlock()
	return writeFrame(conn, frameHelloAck, ack.encode())
}

// noteLeaf records a peer's absolute progress figures.
func (n *Node) noteLeaf(nodeID string, req *syncFrame) {
	n.mu.Lock()
	defer n.mu.Unlock()
	l := n.leaves[nodeID]
	if l == nil {
		return // unreachable mid-session; handshake created the entry
	}
	if req.execs > l.execs {
		l.execs = req.execs
	}
	if req.hangs > l.hangs {
		l.hangs = req.hangs
	}
}
