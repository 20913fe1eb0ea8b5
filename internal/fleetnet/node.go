package fleetnet

import (
	"context"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/core"
	"repro/internal/datamodel"
)

// maxUplinks bounds a node's outbound sessions; static peers are dialed
// first when the cap bites. Convergence only needs the topology
// connected; past a point more links buy redundancy, not reach.
const maxUplinks = 16

// maxPeerFails is how many consecutive failed sync attempts a *learned*
// peer survives before the node forgets its address. Static peers are
// operator intent and are retried forever. Redials back off exponentially
// with jitter (see backoff.Policy.Steps): the first redial after a failure
// is immediate, and every further failure sits out roughly 2^(fails-2)
// rounds, capped at maxPeerFails, plus a seed-jittered extra — so a dead
// peer costs one bounded dial every few rounds, and nodes that watched the
// same peer die don't redial it in lockstep when it returns.
const maxPeerFails = 8

// dialTimeout bounds an uplink's TCP connect. Deliberately much tighter
// than the frame Timeout: a blackholed peer (host down, SYN dropped) must
// not stall the node's whole sync round — and with it the fuzzing loop —
// for 30s.
const dialTimeout = 2 * time.Second

// Config parameterizes a Node. What it is given decides the node's shape:
// a hub listens, has no Peers and is StaticOnly; a leaf has one static
// peer, StaticOnly, and never listens; a mesh node listens and dials.
type Config struct {
	// State is the campaign state the node serves and syncs: its Fleet's
	// State(), or core.NewSyncState for a standalone aggregator. Required.
	State *core.SyncState
	// Fleet is the local campaign the node contributes; every sync round
	// flushes its workers through State. Nil makes a standalone aggregator
	// with no flush and no uplinks: it only serves inbound peers.
	Fleet *core.Fleet
	// Target and Models identify the campaign for the handshake; every
	// peer must match them (verified by the model digest).
	Target string
	Models []*datamodel.Model
	// NodeID names this node in its peers' stats. Defaults to
	// hostname/pid/sequence, which is stable for the node's lifetime and
	// distinct for several nodes in one process — a restarted process is a
	// new node.
	NodeID string
	// Advertise is the address other nodes should dial to reach this
	// node's accept loop. Defaults to the listener address, which is
	// correct when listening on a routable interface (and on loopback
	// demos); override it when the bind address is not dialable from the
	// peers (":7712", a NAT, a container).
	Advertise string
	// Peers is the static peer set: addresses this node always keeps an
	// uplink to. One seed address is enough to join a mesh — the handshake
	// peer exchange supplies the rest.
	Peers []string
	// StaticOnly disables dialing peers learned through the handshake
	// exchange: the node links only to its static set (inbound sessions
	// are still accepted, and learned addresses are still relayed onward).
	// For leaves, and for fixed topologies — rings, lines — where the
	// experiment is the shape. A StaticOnly node with no static peer is a
	// hub: it learns nothing, so it neither dials nor relays an address a
	// connecting peer announces.
	StaticOnly bool
	// Timeout bounds each frame read/write (0 = 30s). A peer that stalls
	// longer is dropped; a dropped uplink redials with its resume cursor.
	Timeout time.Duration
	// Logf receives lifecycle messages (nil = no logging).
	Logf func(format string, args ...any)
}

// Node is one member of a sync fleet: an optional accept loop serving
// inbound peers plus uplinks to the peers in its book, all merging through
// one shared state by the core.SyncPeer path local workers use — so a
// node that also runs a local Fleet needs no extra coordination. Every
// link, inbound or outbound, keeps its own peerSession: a node holds a
// vector of cursors, one per link, so any node can vanish and the
// remaining links keep the campaign converging.
//
// Sync, SyncContext and Close must be called from the fleet's driving
// goroutine, between core.Fleet.Drive windows (a node adds networking to
// the campaign loop, not concurrency); the accept loop and its handlers
// run in the background, and Addr, RemoteStats, PeerStats and FleetStats
// are safe from any goroutine. The campaign loop itself lives in the
// public session driver, peachstar.Campaign.Start.
type Node struct {
	cfg    Config
	digest uint64

	// mu guards the accept side, the peer book and the figures published
	// for display goroutines.
	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	leaves map[string]*remoteLeaf
	closed bool
	// known is the peer book: address → static?
	known     map[string]bool
	statics   int // static entries in known
	advertise string
	// upCount is the connected-uplink count as of the latest round; the
	// fleet figures come from the latest ack over any uplink.
	upCount                             int
	fleetExecs, fleetEdges, fleetLeaves int
	synced                              bool
	// done closes when the accept side does — the signal context watchers
	// select on.
	done chan struct{}
	wg   sync.WaitGroup

	// Touched only by the driving goroutine: the uplinks, the redial
	// jitter (seeded from the node ID, so each node jitters its own way
	// yet reproduces its schedule across runs), and the cumulative
	// sync-frame traffic over every uplink.
	uplinks          map[string]*uplink
	bk               *backoff.Policy
	txBytes, rxBytes int
}

// NewNode validates the configuration and prepares the node: every static
// peer gets its uplink — registered with the shared corpus journal — at
// once. Nothing listens or dials until ListenAndServe and the first Sync.
func NewNode(cfg Config) (*Node, error) {
	if cfg.State == nil {
		return nil, fmt.Errorf("fleetnet: Config.State is required")
	}
	if cfg.Target == "" {
		return nil, fmt.Errorf("fleetnet: Config.Target is required")
	}
	if cfg.Fleet == nil && len(cfg.Peers) > 0 {
		return nil, fmt.Errorf("fleetnet: a node without a Fleet has no uplinks to its Peers")
	}
	if cfg.NodeID == "" {
		host, _ := os.Hostname()
		cfg.NodeID = fmt.Sprintf("%s/%d/%d", host, os.Getpid(), atomic.AddUint32(&nodeSeq, 1))
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	n := &Node{
		cfg:       cfg,
		digest:    ModelDigest(cfg.Target, cfg.Models),
		conns:     make(map[net.Conn]struct{}),
		leaves:    make(map[string]*remoteLeaf),
		known:     make(map[string]bool),
		advertise: cfg.Advertise,
		done:      make(chan struct{}),
		uplinks:   make(map[string]*uplink),
		bk:        backoff.New(mixDigest(digestOffset, cfg.NodeID)),
	}
	for _, a := range cfg.Peers {
		n.AddPeer(a)
	}
	n.tendUplinks()
	return n, nil
}

// nodeSeq disambiguates default node ids for several nodes in one process
// (the loopback examples and tests).
var nodeSeq uint32

// ListenAndServeContext is ListenAndServe scoped to a context: when ctx is
// canceled the accept side closes — the listener stops accepting and every
// inbound peer is dropped mid-read rather than waiting out its frame
// timeout. The public session API listens through this, which is what
// makes a context cancel tear a whole fleet node down promptly.
func (n *Node) ListenAndServeContext(ctx context.Context, addr string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := n.ListenAndServe(addr); err != nil {
		return err
	}
	if ctx.Done() == nil {
		return nil
	}
	// Deliberately outside n.wg: stopServing waits on n.wg, so membership
	// would deadlock. The watcher exits as soon as the accept side closes
	// for any reason, and leaves the uplinks to the driving goroutine.
	go func() {
		select {
		case <-ctx.Done():
			n.stopServing()
		case <-n.done:
		}
	}()
	return nil
}

// ListenAndServe starts the accept loop on addr (host:port; ":0" picks a
// free port). It returns once the listener is installed; inbound peers are
// served in the background. Addr reports the bound address.
func (n *Node) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		ln.Close()
		return fmt.Errorf("fleetnet: node is closed")
	}
	n.ln = ln
	if n.advertise == "" {
		n.advertise = ln.Addr().String()
	}
	n.mu.Unlock()
	n.wg.Add(1)
	go n.acceptLoop(ln)
	return nil
}

// Addr returns the accept loop's bound address, or "" for a node that does
// not listen.
func (n *Node) Addr() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ln == nil {
		return ""
	}
	return n.ln.Addr().String()
}

// Close tears the node down: every uplink closes and releases its journal
// registration (a detached node never pins compaction while the campaign
// keeps fuzzing), the accept loop stops and every inbound peer is dropped.
// The fleet and everything already merged stay intact, and a later Sync
// revives the uplinks: they re-register (falling back to a full journal
// replay if their tail was compacted away) and redial with their resume
// cursors. Safe to call more than once.
func (n *Node) Close() error {
	for _, u := range n.uplinks {
		u.close()
	}
	n.publishUplinks()
	n.stopServing()
	return nil
}

// stopServing closes the accept side and waits for the connection
// handlers to drain. Safe from any goroutine and more than once. The
// shared state keeps everything already merged; a restarted node on the
// same state resumes cleanly.
func (n *Node) stopServing() {
	n.mu.Lock()
	if !n.closed {
		n.closed = true
		close(n.done)
	}
	ln := n.ln
	for c := range n.conns {
		c.Close()
	}
	n.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	n.wg.Wait()
}

// RemoteStats sums the latest absolute figures reported by every inbound
// peer ever seen (disconnected peers' contributions remain — the work
// happened) and reports how many are currently connected.
func (n *Node) RemoteStats() (execs, hangs, connected int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, l := range n.leaves {
		execs += int(l.execs)
		hangs += int(l.hangs)
		if l.connected {
			connected++
		}
	}
	return execs, hangs, connected
}

// PeerStats reports the node's connectivity: connected uplinks (as of the
// latest sync round), connected inbound sessions, and the size of the peer
// book (static + learned).
func (n *Node) PeerStats() (uplinks, inbound, known int) {
	_, _, inbound = n.RemoteStats()
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.upCount, inbound, len(n.known)
}

// FleetStats returns the fleet-wide figures from the latest ack over any
// uplink — total executions the remote knows of, distinct edges in its
// union map, and its connected peers — and whether any ack has arrived
// yet.
func (n *Node) FleetStats() (execs, edges, leaves int, ok bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.fleetExecs, n.fleetEdges, n.fleetLeaves, n.synced
}

// Traffic returns the cumulative bytes this node has sent and received in
// sync frames over its uplinks (headers included, handshakes excluded) —
// the measurement behind cmd/bench's fleetnet.bytes_per_window. Unlike
// the other figures it belongs to the driving goroutine.
func (n *Node) Traffic() (tx, rx int) { return n.txBytes, n.rxBytes }

// AddPeer adds one address to the peer book as a static peer (dialed from
// the next Sync on, retried forever, never forgotten) — for topologies
// wired up after the nodes exist, like a ring of nodes that each had to
// listen before the next one could point at them.
func (n *Node) AddPeer(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if addr != "" && addr != n.advertise && !n.known[addr] {
		n.known[addr] = true
		n.statics++
	}
}

// Endpoint names the node in its sync-window reports: its accept address,
// or — for a node that does not listen, like a leaf — its first static peer.
func (n *Node) Endpoint() string {
	if a := n.Addr(); a != "" || len(n.cfg.Peers) == 0 {
		return a
	}
	return n.cfg.Peers[0]
}

// knownPeers snapshots the peer book for a handshake, sorted for
// determinism. Called with n.mu held.
func (n *Node) knownPeers() []string {
	out := make([]string, 0, len(n.known))
	for a := range n.known {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// learnPeers folds announced addresses into the peer book, skipping the
// node's own and known ones. A node that never dials learned addresses —
// one without a Fleet, or a hub (StaticOnly, no static peer) — learns
// nothing, so a peer's hello cannot make it a dialer or a gossip relay.
// Called from handler goroutines and uplink dials.
func (n *Node) learnPeers(addrs ...string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.cfg.Fleet == nil || (n.cfg.StaticOnly && n.statics == 0) {
		return
	}
	for _, addr := range addrs {
		if _, ok := n.known[addr]; !ok && addr != "" && addr != n.advertise {
			n.known[addr] = false
			n.cfg.Logf("fleetnet %s: learned peer %s", n.cfg.NodeID, addr)
		}
	}
}

// forgetPeer drops a learned address that stopped answering. Static
// addresses are never forgotten.
func (n *Node) forgetPeer(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if static, ok := n.known[addr]; ok && !static {
		delete(n.known, addr)
		n.cfg.Logf("fleetnet %s: forgot unreachable peer %s", n.cfg.NodeID, addr)
	}
}

// inboundAdvertised lists the advertised dial-back addresses of currently
// connected inbound sessions: a learned peer that keeps an uplink to us
// does not need one from us. Called with n.mu held.
func (n *Node) inboundAdvertised() map[string]bool {
	out := make(map[string]bool)
	for _, l := range n.leaves {
		if l.connected && l.advertise != "" {
			out[l.advertise] = true
		}
	}
	return out
}

// tendUplinks reconciles the uplinks with the peer book; a node without a
// Fleet has none.
//
// It first drops the links a node must not keep. One is a link to the
// node's own address: a static peer naming it got its uplink before the
// listener told us who we are. The others resolve the bootstrap race
// where both sides of a pair learned each other in the same round and
// both dialed before either handshake landed: once a node sees a live
// inbound session from an address it also keeps a connected learned
// uplink to, the node with the lexically larger advertise address yields
// its uplink — deterministically one link per pair, bidirectional over
// whichever remains. Static uplinks are operator intent and never yielded.
//
// It then creates uplinks for known peers that lack one: every static
// peer, plus — unless StaticOnly — every learned peer that does not
// already keep an inbound session to us (a link needs only one dialer; the
// exchange is bidirectional either way).
func (n *Node) tendUplinks() {
	if n.cfg.Fleet == nil {
		return
	}
	type cand struct {
		addr   string
		static bool
	}
	var want []cand
	n.mu.Lock()
	for addr, static := range n.known {
		if addr != n.advertise && (static || !n.cfg.StaticOnly) {
			want = append(want, cand{addr, static})
		}
	}
	advertise, inbound := n.advertise, n.inboundAdvertised()
	n.mu.Unlock()
	for addr, u := range n.uplinks {
		if addr == advertise {
			n.dropUplink(addr, u)
		} else if !u.static && u.conn != nil && advertise > addr && inbound[addr] {
			n.dropUplink(addr, u)
			n.cfg.Logf("fleetnet %s: yielded duplicate link to %s (peer keeps dialing)", n.cfg.NodeID, addr)
		}
	}
	// Static peers first: when maxUplinks bites, operator-configured links
	// must never be starved by alphabetically-earlier learned addresses.
	sort.Slice(want, func(i, j int) bool {
		if want[i].static != want[j].static {
			return want[i].static
		}
		return want[i].addr < want[j].addr
	})
	for _, c := range want {
		if _, ok := n.uplinks[c.addr]; ok || (!c.static && inbound[c.addr]) {
			continue
		}
		if len(n.uplinks) >= maxUplinks {
			break
		}
		n.uplinks[c.addr] = n.newUplink(c.addr, c.static)
	}
}

// Sync runs one sync round under a background context; see SyncContext.
func (n *Node) Sync() error { return n.SyncContext(context.Background()) }

// SyncContext runs one sync round: flush the local workers into the
// shared state, exchange deltas over every due uplink in address order —
// dialing known peers that lack one — and, when any uplink exchanged,
// flush again so the workers see the remote material at once. Inbound
// sessions sync themselves on the accept loop, so a hub's round is the
// first flush alone: it publishes the workers to the peers that pull from
// it. The fleet must not be running.
//
// A failed link resets its session and redials with capped exponential
// backoff and jitter — the first redial is immediate — and a learned peer
// that stays dead is forgotten. The first link error is returned for
// logging; an uplink sitting a round out counts with its last error, so
// nil means every uplink exchanged. Cancellation interrupts the link in
// flight (dial included), skips the rest of the round and returns the
// context's error. A node without a Fleet has nothing to flush or dial.
func (n *Node) SyncContext(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if n.cfg.Fleet == nil {
		return nil
	}
	n.cfg.Fleet.SyncAll()
	n.tendUplinks()
	addrs := make([]string, 0, len(n.uplinks))
	for a := range n.uplinks {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	var firstErr error
	exchanged := false
	for _, addr := range addrs {
		if err := ctx.Err(); err != nil {
			return err
		}
		u := n.uplinks[addr]
		err := u.err
		if u.conn == nil && u.skip > 0 {
			u.skip-- // back off a dead peer's redial; don't stall the round
		} else if err = u.sync(ctx); err == nil {
			u.fails, u.skip, u.err = 0, 0, nil
			exchanged = true
			continue
		} else if ctx.Err() != nil {
			// The campaign was canceled, not the peer: no failure is
			// charged against the link.
			return ctx.Err()
		} else {
			u.fails++
			u.skip, u.err = n.bk.Steps(u.fails-1, maxPeerFails), err
			n.cfg.Logf("fleetnet %s: sync with %s: %v", n.cfg.NodeID, addr, err)
			if !u.static && u.fails >= maxPeerFails {
				n.dropUplink(addr, u)
				n.forgetPeer(addr)
			}
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	n.publishUplinks()
	if exchanged {
		n.cfg.Fleet.SyncAll()
	}
	return firstErr
}

// publishUplinks refreshes the connected-uplink count PeerStats reads.
// Called from the driving goroutine, where the uplink map is safe to walk.
func (n *Node) publishUplinks() {
	up := 0
	for _, u := range n.uplinks {
		if u.conn != nil {
			up++
		}
	}
	n.mu.Lock()
	n.upCount = up
	n.mu.Unlock()
}

// dropUplink closes one uplink and forgets it. The address stays in the
// peer book unless the caller also forgets it.
func (n *Node) dropUplink(addr string, u *uplink) {
	u.close()
	delete(n.uplinks, addr)
}
