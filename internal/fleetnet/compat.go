package fleetnet

import (
	"repro/internal/core"
	"repro/internal/datamodel"
)

// The names in this file exist only for cmd/bench, which was written
// against the hub and leaf types that Node replaced. Everything else
// builds nodes with NewNode.

// Hub is a Node that listens and has no peers.
type Hub = Node

// Leaf is a Node with one static peer and no listener.
type Leaf = Node

// HubConfig is the Config of a standalone aggregator hub.
type HubConfig struct {
	State  *core.SyncState
	Target string
	Models []*datamodel.Model
}

// LeafConfig is the Config of a leaf uplinking Fleet to the node at Addr.
type LeafConfig struct {
	Fleet  *core.Fleet
	Addr   string
	Target string
	Models []*datamodel.Model
}

// NewHub is NewNode for a standalone aggregator; serve it with ListenAndServe.
func NewHub(c HubConfig) (*Hub, error) {
	return NewNode(Config{State: c.State, Target: c.Target, Models: c.Models})
}

// NewLeaf is NewNode for a leaf.
func NewLeaf(c LeafConfig) (*Leaf, error) {
	return NewNode(Config{State: c.Fleet.State(), Fleet: c.Fleet, Peers: []string{c.Addr}, StaticOnly: true, Target: c.Target, Models: c.Models})
}
