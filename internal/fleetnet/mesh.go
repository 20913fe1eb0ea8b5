package fleetnet

import (
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/core"
	"repro/internal/datamodel"
)

// maxUplinks bounds a mesh node's outbound sessions; static peers are
// dialed first when the cap bites. Convergence only needs the topology
// connected; past a point more links buy redundancy, not reach.
const maxUplinks = 16

// meshPeerFails is how many consecutive failed sync attempts a *learned*
// peer survives before the node forgets its address. Static peers are
// operator intent and are retried forever. Redials back off exponentially
// with jitter (see backoff.Policy.Steps): a failed attempt sits out
// roughly 2^(fails-1) windows, capped at meshPeerFails, plus a
// seed-jittered extra — so a dead peer costs one bounded dial every few
// windows, and nodes that watched the same peer die don't redial it in
// lockstep when it returns.
const meshPeerFails = 8

// DefaultMeshDialTimeout bounds a mesh uplink's TCP connect. Deliberately
// much tighter than the frame Timeout: a blackholed peer (host down, SYN
// dropped) must not stall the node's whole sync round — and with it the
// fuzzing loop — for 30s.
const DefaultMeshDialTimeout = 2 * time.Second

// MeshConfig parameterizes a Mesh node.
type MeshConfig struct {
	// Fleet is the local campaign this node contributes. Its shared state
	// is what every link — inbound and outbound — merges through.
	Fleet *core.Fleet
	// Target and Models identify the campaign for the handshake.
	Target string
	Models []*datamodel.Model
	// NodeID names this node in its peers' stats; defaults to
	// hostname/pid/sequence.
	NodeID string
	// Advertise is the address other nodes should dial to reach this
	// node's accept loop. Defaults to the listener address, which is
	// correct when listening on a routable interface (and on loopback
	// demos); override it when the bind address is not dialable from the
	// peers (":7712", a NAT, a container).
	Advertise string
	// Peers is the static bootstrap peer set: addresses this node always
	// keeps an uplink to. One seed address is enough to join a mesh — the
	// handshake peer exchange supplies the rest.
	Peers []string
	// StaticOnly disables dialing peers learned through the handshake
	// exchange: the node links only to its static set (inbound sessions
	// are still accepted, and learned addresses are still relayed onward).
	// For fixed topologies — rings, lines — where the experiment is the
	// shape.
	StaticOnly bool
	// Timeout bounds each frame read/write (0 = 30s).
	Timeout time.Duration
	// Logf receives lifecycle messages (nil = no logging).
	Logf func(format string, args ...any)
}

// Mesh runs one node of a hub-less fleet: the hub accept loop serving
// inbound peers plus leaf-style uplinks to every known peer address, all
// merging through the node's own fleet state. Where a hub/leaf fleet has
// one cursor per leaf all held by the hub, a mesh node holds a vector of
// peerSessions — one per link — so any node can vanish and the remaining
// links keep the campaign converging; sync bandwidth scales with links,
// not through one box.
//
// Sync and Close must be called from the fleet's driving goroutine; the
// accept loop and its handlers run in the background like a Hub's. The
// campaign loop itself lives in the public session driver,
// peachstar.Campaign.Start, which alternates core.Fleet.Drive windows
// with Mesh.SyncContext.
type Mesh struct {
	cfg MeshConfig
	hub *Hub

	// mu guards known and advertise, which handler goroutines touch
	// through the peer-exchange callbacks.
	mu        sync.Mutex
	known     map[string]bool // address → static?
	advertise string

	// uplinks is touched only by the driving goroutine.
	uplinks map[string]*meshUplink
	// bk draws the redial-backoff jitter; seeded from the node ID so each
	// node jitters its own way (anti-thundering-herd) yet reproduces its
	// schedule across runs. Touched only by the driving goroutine.
	bk *backoff.Policy

	// localExecs is the node's own execution count as of the last window,
	// published for handler goroutines building acks.
	localExecs int64
	// pubUplinks is the connected-uplink count as of the last sync round,
	// published so PeerStats can be read from display goroutines without
	// touching the driving goroutine's uplink map.
	pubUplinks int64
}

// hashID folds a node ID into the 64-bit seed of the node's backoff
// jitter stream (FNV-1a).
func hashID(id string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	var h uint64 = offset
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime
	}
	return h
}

// meshUplink is one outbound link plus its retry accounting.
type meshUplink struct {
	leaf   *Leaf
	static bool
	fails  int // consecutive failed attempts; learned peers are forgotten past meshPeerFails
	skip   int // disconnected-redial backoff: windows to sit out before the next attempt
}

// NewMesh validates the configuration and prepares the node. Nothing
// listens or dials until ListenAndServe and the first Sync.
func NewMesh(cfg MeshConfig) (*Mesh, error) {
	if cfg.Fleet == nil {
		return nil, fmt.Errorf("fleetnet: MeshConfig.Fleet is required")
	}
	if cfg.Target == "" {
		return nil, fmt.Errorf("fleetnet: MeshConfig.Target is required")
	}
	if cfg.NodeID == "" {
		host, _ := os.Hostname()
		cfg.NodeID = fmt.Sprintf("%s/%d/%d", host, os.Getpid(), atomic.AddUint32(&leafSeq, 1))
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	m := &Mesh{
		cfg:       cfg,
		known:     make(map[string]bool),
		uplinks:   make(map[string]*meshUplink),
		advertise: cfg.Advertise,
		bk:        backoff.New(hashID(cfg.NodeID)),
	}
	for _, a := range cfg.Peers {
		if a != "" {
			m.known[a] = true
		}
	}
	hub, err := NewHub(HubConfig{
		State:      cfg.Fleet.State(),
		Target:     cfg.Target,
		Models:     cfg.Models,
		NodeID:     cfg.NodeID,
		LocalExecs: func() int { return int(atomic.LoadInt64(&m.localExecs)) },
		Timeout:    cfg.Timeout,
		Logf:       cfg.Logf,
		KnownPeers: m.knownPeers,
		LearnPeer:  m.learnPeer,
	})
	if err != nil {
		return nil, err
	}
	m.hub = hub
	return m, nil
}

// ListenAndServe starts the node's accept loop on addr (":0" picks a free
// port). It returns once the listener is installed; inbound peers are
// served in the background.
func (m *Mesh) ListenAndServe(addr string) error {
	if err := m.hub.ListenAndServe(addr); err != nil {
		return err
	}
	m.mu.Lock()
	if m.advertise == "" {
		m.advertise = m.hub.Addr()
	}
	m.mu.Unlock()
	return nil
}

// Addr returns the accept loop's bound address, or "" before
// ListenAndServe.
func (m *Mesh) Addr() string { return m.hub.Addr() }

// knownPeers snapshots the peer book for a handshake, sorted for
// determinism. Called from handler goroutines and uplink dials.
func (m *Mesh) knownPeers() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.known))
	for a := range m.known {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// learnPeer folds one announced address into the peer book. Own address
// and known addresses are ignored. Called from handler goroutines and
// uplink dials.
func (m *Mesh) learnPeer(addr string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if addr == "" || addr == m.advertise {
		return
	}
	if _, ok := m.known[addr]; !ok {
		m.known[addr] = false
		m.cfg.Logf("fleetnet mesh %s: learned peer %s", m.cfg.NodeID, addr)
	}
}

// AddPeer adds one address to the peer book at runtime as a static peer
// (dialed from the next Sync on, retried forever, never forgotten) — for
// topologies wired up after the nodes exist, like a ring of nodes that
// each had to listen before the next one could point at them.
func (m *Mesh) AddPeer(addr string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if addr != "" && addr != m.advertise {
		m.known[addr] = true
	}
}

// forgetPeer drops a learned address that stopped answering. Static
// addresses are never forgotten.
func (m *Mesh) forgetPeer(addr string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if static, ok := m.known[addr]; ok && !static {
		delete(m.known, addr)
		m.cfg.Logf("fleetnet mesh %s: forgot unreachable peer %s", m.cfg.NodeID, addr)
	}
}

// ensureUplinks creates uplinks for known peers that lack one: every
// static peer, plus — unless StaticOnly — every learned peer that does not
// already keep an inbound session to us (a link needs only one dialer; the
// exchange is bidirectional either way).
func (m *Mesh) ensureUplinks() {
	m.mu.Lock()
	type cand struct {
		addr   string
		static bool
	}
	var want []cand
	for addr, static := range m.known {
		if addr == m.advertise {
			continue
		}
		if static || !m.cfg.StaticOnly {
			want = append(want, cand{addr, static})
		}
	}
	advertise := m.advertise
	m.mu.Unlock()
	// Static peers first: when maxUplinks bites, operator-configured links
	// must never be starved by alphabetically-earlier learned addresses.
	sort.Slice(want, func(i, j int) bool {
		if want[i].static != want[j].static {
			return want[i].static
		}
		return want[i].addr < want[j].addr
	})
	inbound := m.hub.InboundAdvertised()
	for _, c := range want {
		if _, ok := m.uplinks[c.addr]; ok {
			continue
		}
		if !c.static && inbound[c.addr] {
			continue
		}
		if len(m.uplinks) >= maxUplinks {
			break
		}
		leaf, err := NewLeaf(LeafConfig{
			Fleet:       m.cfg.Fleet,
			Addr:        c.addr,
			Target:      m.cfg.Target,
			Models:      m.cfg.Models,
			NodeID:      m.cfg.NodeID,
			Timeout:     m.cfg.Timeout,
			DialTimeout: DefaultMeshDialTimeout,
			Logf:        m.cfg.Logf,
			Advertise:   advertise,
			KnownPeers:  m.knownPeers,
			LearnPeer:   m.learnPeer,
		})
		if err != nil {
			m.cfg.Logf("fleetnet mesh %s: uplink to %s: %v", m.cfg.NodeID, c.addr, err)
			continue
		}
		m.uplinks[c.addr] = &meshUplink{leaf: leaf, static: c.static}
	}
}

// Sync runs one merge window with every peer: dial any known peer that
// lacks a link, then exchange deltas over each uplink in address order.
// Individual link failures are tolerated — the failing session resets and
// redials with capped exponential backoff and jitter, a learned peer that
// stays dead is eventually forgotten — and the first error is returned for
// logging;
// inbound sessions sync themselves through the accept loop. The node's
// fleet must not be running (call between Drive windows, like Leaf.Sync).
func (m *Mesh) Sync() error { return m.SyncContext(context.Background()) }

// SyncContext is Sync under a context: cancellation interrupts the uplink
// in flight (dial included) and skips the remaining uplinks of the round,
// so a canceled campaign leaves a mesh within one link exchange instead
// of finishing a full round against every peer. The context's error is
// returned once it fires; link errors keep their first-error-for-logging
// semantics.
func (m *Mesh) SyncContext(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	atomic.StoreInt64(&m.localExecs, int64(m.cfg.Fleet.Execs()))
	// Flush the workers into the shared state before (and independent of)
	// any uplink exchange: a node whose links all point inward — the seed
	// node of a freshly bootstrapped mesh — must still present its latest
	// discoveries to the peers that pull from it, and must fold their
	// pushes back into its workers. Uplink syncs flush again around their
	// own windows; SyncAll converges to a no-op, so the overlap is cheap.
	m.cfg.Fleet.SyncAll()
	m.ensureUplinks()
	m.pruneDuplicateLinks()
	addrs := make([]string, 0, len(m.uplinks))
	for a := range m.uplinks {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	var firstErr error
	for _, addr := range addrs {
		if err := ctx.Err(); err != nil {
			return err
		}
		u := m.uplinks[addr]
		if !u.leaf.Connected() && u.skip > 0 {
			u.skip-- // back off a dead peer's redial; don't stall the round
			continue
		}
		err := u.leaf.SyncContext(ctx)
		if err == nil {
			u.fails, u.skip = 0, 0
			continue
		}
		if ctx.Err() != nil {
			// The campaign was canceled, not the peer: no failure is
			// charged against the link.
			return ctx.Err()
		}
		u.fails++
		u.skip = m.bk.Steps(u.fails, meshPeerFails)
		m.cfg.Logf("fleetnet mesh %s: sync with %s: %v", m.cfg.NodeID, addr, err)
		if firstErr == nil {
			firstErr = err
		}
		if !u.static && u.fails >= meshPeerFails {
			m.dropUplink(addr, u)
			m.forgetPeer(addr)
		}
	}
	m.publishUplinks()
	return firstErr
}

// publishUplinks refreshes the connected-uplink count PeerStats reads.
// Called from the driving goroutine at the end of a sync round (and on
// teardown), where the uplink map is safe to walk.
func (m *Mesh) publishUplinks() {
	n := 0
	for _, u := range m.uplinks {
		if u.leaf.Connected() {
			n++
		}
	}
	atomic.StoreInt64(&m.pubUplinks, int64(n))
}

// pruneDuplicateLinks resolves the bootstrap race where both sides of a
// pair learned each other in the same window and both dialed before either
// handshake landed: once a node sees a live inbound session from an
// address it also keeps a connected learned uplink to, the node with the
// lexically larger advertise address yields its uplink — deterministically
// one link per pair, bidirectional over whichever remains. Static uplinks
// are operator intent and never yielded.
func (m *Mesh) pruneDuplicateLinks() {
	m.mu.Lock()
	advertise := m.advertise
	m.mu.Unlock()
	var inbound map[string]bool
	for addr, u := range m.uplinks {
		if u.static || !u.leaf.Connected() || advertise <= addr {
			continue
		}
		if inbound == nil {
			inbound = m.hub.InboundAdvertised()
		}
		if !inbound[addr] {
			continue
		}
		m.dropUplink(addr, u)
		m.cfg.Logf("fleetnet mesh %s: yielded duplicate link to %s (peer keeps dialing)", m.cfg.NodeID, addr)
	}
}

// dropUplink closes one uplink. The address stays in the peer book unless
// the caller also forgets it.
func (m *Mesh) dropUplink(addr string, u *meshUplink) {
	u.leaf.Close()
	delete(m.uplinks, addr)
}

// PeerStats reports the node's connectivity: connected uplinks (as of
// the latest sync round), connected inbound sessions, and the size of
// the peer book (static + learned). Safe to call from any goroutine —
// progress displays consume it from event loops while the driving
// goroutine syncs.
func (m *Mesh) PeerStats() (uplinks, inbound, known int) {
	uplinks = int(atomic.LoadInt64(&m.pubUplinks))
	_, _, inbound = m.hub.RemoteStats()
	m.mu.Lock()
	known = len(m.known)
	m.mu.Unlock()
	return uplinks, inbound, known
}

// RemoteExecs sums the executions reported by peers over inbound sessions
// (absolute figures, surviving disconnects) — the node's window into work
// it did not do itself.
func (m *Mesh) RemoteExecs() int {
	execs, _, _ := m.hub.RemoteStats()
	return execs
}

// Close tears the node down: every uplink is closed (unregistering its
// journal consumers) and the accept loop stops. The fleet and everything
// already merged stay intact — a mesh with a closed node keeps converging
// over its remaining links, and a replacement node bootstraps back in from
// any live peer address.
func (m *Mesh) Close() error {
	for addr, u := range m.uplinks {
		m.dropUplink(addr, u)
	}
	m.publishUplinks()
	return m.hub.Close()
}
