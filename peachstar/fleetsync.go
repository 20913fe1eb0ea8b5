package peachstar

// This file is the public face of the distributed fleet transport
// (internal/fleetnet): a campaign can serve its shared state to remote
// leaves (ServeSync) or attach itself as a leaf of a remote hub
// (DialSync). See ARCHITECTURE.md for the wire protocol and the
// convergence guarantees, and the README "Distributed campaigns" section
// for operational semantics.

import (
	"context"

	"repro/internal/core"
	"repro/internal/fleetnet"
)

// SyncServer is a running fleet-sync hub bound to one campaign: remote
// leaves that connect merge their coverage, puzzles, and crashes into the
// campaign's shared state, and receive everything the campaign (and its
// other leaves) know in return.
type SyncServer struct {
	hub   *fleetnet.Hub
	fleet *core.Fleet
}

// ServeSync starts serving this campaign's shared state to remote leaves
// on addr (host:port; ":0" picks a free port — see Addr). The hub accepts
// in the background; the campaign may keep fuzzing concurrently — pass the
// server's Attachment to its sessions, whose sync windows are what publish
// the campaign's own discoveries to the leaves and fold theirs back into
// its workers. Close the returned server to stop accepting.
func (c *Campaign) ServeSync(addr string) (*SyncServer, error) {
	return c.serveSync(context.Background(), addr)
}

// serveSync is ServeSync scoped to a context (the session driver's path,
// so a canceled session tears its hub attachment down promptly): ctx
// cancellation closes the hub, listener and peer connections included.
func (c *Campaign) serveSync(ctx context.Context, addr string) (*SyncServer, error) {
	hub, err := fleetnet.NewHub(fleetnet.HubConfig{
		State:      c.fleet.State(),
		Target:     c.cfg.Target.(Target).Name(),
		Models:     c.cfg.Models,
		LocalExecs: c.fleet.ExecsApprox,
	})
	if err != nil {
		return nil, err
	}
	if err := hub.ListenAndServeContext(ctx, addr); err != nil {
		return nil, err
	}
	return &SyncServer{hub: hub, fleet: c.fleet}, nil
}

// Addr returns the bound listen address.
func (s *SyncServer) Addr() string { return s.hub.Addr() }

// Attachment adapts a live sync server into a session attachment: the
// session publishes the campaign's discoveries to the server's leaves
// (and folds theirs back) at the configured cadence but does not own it:
// it stays open when the session ends, so one hub can span several
// sessions (fuzz phases, relay phases) on the same campaign.
func (s *SyncServer) Attachment() Attachment { return s.attachment(nil) }

// attachment is the server as a session drives it. A hub's leaves exchange
// with the shared state on the accept loop's goroutines, so its sync is
// only the local flush: publish the workers' discoveries, fold the
// leaves' back out.
func (s *SyncServer) attachment(closer func() error) *attachment {
	flush := func(context.Context) error { s.fleet.SyncAll(); return nil }
	return &attachment{kind: "hub", addr: s.Addr(), sync: flush, close: closer}
}

// RemoteStats reports the hub's view of its leaves: total remote
// executions and hangs (absolute figures from each leaf's latest sync,
// surviving disconnects), and how many leaves are connected right now.
func (s *SyncServer) RemoteStats() (execs, hangs, connected int) {
	return s.hub.RemoteStats()
}

// Close stops accepting and disconnects all leaves. State already merged
// stays in the campaign; leaves keep fuzzing locally and will resume if a
// new server is started on the campaign (or any campaign sharing its
// state) at the same address.
func (s *SyncServer) Close() error { return s.hub.Close() }

// SyncLeaf attaches one campaign to a remote hub as a fleet leaf.
type SyncLeaf struct {
	leaf *fleetnet.Leaf
}

// DialSync prepares this campaign to sync with the hub at addr. Drive the
// campaign with Start and the returned leaf's Attachment in
// RunConfig.Attach (or let the session own the uplink: WithLeaf). No
// connection is made until the first sync window, and a lost connection
// only pauses exchange — the campaign keeps fuzzing and the next window
// reconnects and resumes.
//
// Give each leaf of a fleet a distinct Options.SeedStream so no two hosts
// fuzz the same RNG streams of the shared campaign seed.
func (c *Campaign) DialSync(addr string) (*SyncLeaf, error) {
	leaf, err := fleetnet.NewLeaf(fleetnet.LeafConfig{
		Fleet:  c.fleet,
		Addr:   addr,
		Target: c.cfg.Target.(Target).Name(),
		Models: c.cfg.Models,
	})
	if err != nil {
		return nil, err
	}
	return &SyncLeaf{leaf: leaf}, nil
}

// Sync runs one merge window with the hub: push local discoveries, pull
// the fleet's. Safe to call between sessions; returns the transport
// error, if any, after resetting the session for the next attempt.
func (l *SyncLeaf) Sync() error { return l.leaf.Sync() }

// Attachment adapts a live leaf uplink into a session attachment: the
// session syncs it at the configured cadence but does not close it, so
// the caller keeps the handle (FleetStats, Connected) across sessions.
func (l *SyncLeaf) Attachment() Attachment { return l.attachment(nil) }

func (l *SyncLeaf) attachment(closer func() error) *attachment {
	return &attachment{kind: "leaf", addr: l.leaf.Addr(), sync: l.leaf.SyncContext, close: closer}
}

// FleetStats returns the fleet-wide figures from the latest hub reply —
// total executions the hub knows of, distinct edges in the hub's union
// map, connected leaves — and whether a reply has arrived yet.
func (l *SyncLeaf) FleetStats() (execs, edges, leaves int, ok bool) {
	return l.leaf.FleetStats()
}

// Connected reports whether a hub session is currently established.
func (l *SyncLeaf) Connected() bool { return l.leaf.Connected() }

// Close drops the hub session. The campaign and its results are untouched.
func (l *SyncLeaf) Close() error { return l.leaf.Close() }
