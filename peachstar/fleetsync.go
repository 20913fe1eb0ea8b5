package peachstar

// This file is the public face of the fleet sync transport
// (internal/fleetnet): one SyncNode handle in three shapes. A campaign can
// serve its shared state to remote leaves (ServeSync: a hub), uplink to a
// hub (DialSync: a leaf), or join a hub-less mesh whose nodes both accept
// peers and uplink to them, so the fleet survives the loss of any single
// node (JoinMesh). See ARCHITECTURE.md "Cross-host: fleetnet" and "Mesh
// topology" for the wire protocol and the convergence guarantees, and the
// README "Distributed campaigns" and "Mesh campaigns" sections for
// operational semantics.

import (
	"context"

	"repro/internal/fleetnet"
)

// MeshOptions configures a campaign's sync node: what JoinMesh takes, and
// what ServeSync and DialSync fill in for their shapes.
type MeshOptions struct {
	// Listen is the accept-loop address (host:port; ":0" picks a free
	// port — see SyncNode.Addr). Empty: the node accepts nothing and only
	// dials its peers.
	Listen string
	// Peers are the bootstrap peer addresses. One live address is enough
	// to join an existing mesh: the handshake peer exchange supplies the
	// rest. Empty for the first node of a new mesh.
	Peers []string
	// Advertise is the address other nodes should dial to reach this
	// node. Defaults to the bound listener address, which is right when
	// Listen names a routable interface; override it when the bind
	// address is not what peers can dial (":7712", NAT, containers).
	Advertise string
	// StaticOnly restricts uplinks to the configured Peers — learned
	// addresses are relayed onward but not dialed — for fixed topologies
	// (rings, lines) where the shape is the experiment. With no Peers it
	// makes a hub, which learns, dials and relays no address at all.
	StaticOnly bool
}

// SyncNode is one campaign's membership in a sync fleet. Remote and local
// discoveries converge through the same merge path whatever its shape: a
// hub (ServeSync) accepts leaves, a leaf (DialSync) uplinks to a hub, a
// mesh node (JoinMesh) does both.
type SyncNode struct {
	node *fleetnet.Node
	kind string // "hub" | "leaf" | "mesh", for SyncWindowEvent
}

// SyncServer is the hub-shaped SyncNode's earlier name, kept for callers
// that still spell it.
type SyncServer = SyncNode

// ServeSync starts serving this campaign's shared state to remote leaves
// on addr (host:port; ":0" picks a free port — see Addr). The hub accepts
// in the background; the campaign may keep fuzzing concurrently — pass the
// node's Attachment to its sessions, whose sync windows are what publish
// the campaign's own discoveries to the leaves and fold theirs back into
// its workers. Close the returned node to stop accepting. A hub never
// dials: it ignores the peer addresses connecting nodes announce.
func (c *Campaign) ServeSync(addr string) (*SyncNode, error) {
	return c.join(context.Background(), "hub", MeshOptions{Listen: addr, StaticOnly: true})
}

// DialSync prepares this campaign to sync with the hub at addr. Drive the
// campaign with Start and the returned node's Attachment in
// RunConfig.Attach (or let the session own the uplink: WithLeaf). No
// connection is made until the first sync window, and a lost connection
// only pauses exchange — the campaign keeps fuzzing and the next window
// reconnects and resumes.
//
// Give each leaf of a fleet a distinct Options.SeedStream so no two hosts
// fuzz the same RNG streams of the shared campaign seed.
func (c *Campaign) DialSync(addr string) (*SyncNode, error) {
	return c.join(context.Background(), "leaf", MeshOptions{Peers: []string{addr}, StaticOnly: true})
}

// JoinMesh makes this campaign a mesh node: it starts accepting peer
// connections on opts.Listen and will keep uplinks to every known peer.
// Drive the campaign with Start and the returned node's Attachment in
// RunConfig.Attach (or let the session own the node: WithMesh); there is
// one session per link instead of one hub holding them all.
//
// Give each node of a mesh a distinct Options.SeedStream so no two hosts
// fuzz the same RNG streams of the shared campaign seed.
func (c *Campaign) JoinMesh(opts MeshOptions) (*SyncNode, error) {
	return c.join(context.Background(), "mesh", opts)
}

// join builds the node every constructor and session attachment shares.
// It listens (when opts.Listen is set) under ctx: a canceled session stops
// the accept loop and drops every inbound peer promptly.
func (c *Campaign) join(ctx context.Context, kind string, opts MeshOptions) (*SyncNode, error) {
	node, err := fleetnet.NewNode(fleetnet.Config{
		State:      c.fleet.State(),
		Fleet:      c.fleet,
		Target:     c.cfg.Target.(Target).Name(),
		Models:     c.cfg.Models,
		Advertise:  opts.Advertise,
		Peers:      opts.Peers,
		StaticOnly: opts.StaticOnly,
	})
	if err != nil {
		return nil, err
	}
	if opts.Listen != "" {
		if err := node.ListenAndServeContext(ctx, opts.Listen); err != nil {
			node.Close()
			return nil, err
		}
	}
	return &SyncNode{node: node, kind: kind}, nil
}

// Addr returns the node's bound accept-loop address ("" for a leaf, which
// does not listen).
func (n *SyncNode) Addr() string { return n.node.Addr() }

// Sync runs one sync round by hand: flush the campaign's workers, exchange
// with every uplink (a hub has none: its leaves exchange on the accept
// loop), flush again. Safe to call between sessions; a failed link resets
// only its own session, and the first error is returned for logging.
func (n *SyncNode) Sync() error { return n.node.Sync() }

// Attachment adapts the live node into a session attachment: the session
// runs its sync rounds at the configured cadence but does not close it, so
// the caller keeps the handle across sessions — one hub can span several
// sessions (fuzz phases, relay phases) on the same campaign.
func (n *SyncNode) Attachment() Attachment { return n }

// RemoteStats reports what inbound peers have told this node: their total
// executions and hangs (absolute figures from each peer's latest sync,
// surviving disconnects), and how many are connected right now.
func (n *SyncNode) RemoteStats() (execs, hangs, connected int) { return n.node.RemoteStats() }

// FleetStats returns the fleet-wide figures from the latest reply over an
// uplink — total executions the remote knows of, distinct edges in its
// union map, its connected peers — and whether a reply has arrived yet.
func (n *SyncNode) FleetStats() (execs, edges, leaves int, ok bool) { return n.node.FleetStats() }

// PeerStats reports the node's connectivity: connected uplinks, connected
// inbound peer sessions, and how many peer addresses it knows.
func (n *SyncNode) PeerStats() (uplinks, inbound, known int) { return n.node.PeerStats() }

// Close leaves the fleet: uplinks close, the accept loop stops and inbound
// peers are dropped. The campaign and everything already merged stay
// intact; peers keep converging over their remaining links and resume
// when a node on the campaign (or any campaign sharing its state) comes
// back at the same address.
func (n *SyncNode) Close() error { return n.node.Close() }
