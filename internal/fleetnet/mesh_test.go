package fleetnet

import (
	"sync"
	"testing"

	"repro/internal/core"
)

// newConvMesh builds one mesh node over a 1-worker conformance-target
// fleet, listening on loopback.
func newConvMesh(t *testing.T, fleet *core.Fleet, id string, static bool, peers ...string) *Node {
	t.Helper()
	return startNode(t, Config{
		State:      fleet.State(),
		Fleet:      fleet,
		Target:     "conv",
		Models:     convModels(),
		NodeID:     id,
		Peers:      peers,
		StaticOnly: static,
		Logf:       t.Logf,
	})
}

// runMeshes drives each node to its exec budget on its own goroutine —
// the per-node driving loop a real deployment runs — and waits for all.
func runMeshes(t *testing.T, window int, nodes map[*Node]int) {
	t.Helper()
	var wg sync.WaitGroup
	for m, budget := range nodes {
		wg.Add(1)
		go func(m *Node, budget int) {
			defer wg.Done()
			if err := driveSynced(m.cfg.Fleet, m.Sync, budget, window); err != nil {
				t.Logf("mesh %s final sync: %v", m.cfg.NodeID, err)
			}
		}(m, budget)
	}
	wg.Wait()
}

// settle runs a few sequential sync rounds so every node's last
// discoveries propagate across the whole topology. Individual link errors
// are tolerated like the mesh itself tolerates them (a dead address may
// still be churning out of the peer books); the convergence assertions are
// the real check.
func settle(t *testing.T, nodes ...*Node) {
	t.Helper()
	for round := 0; round < 3; round++ {
		for _, m := range nodes {
			if err := m.Sync(); err != nil {
				t.Logf("settlement sync on %s: %v (continuing)", m.cfg.NodeID, err)
			}
		}
	}
}

// TestMeshThreeNodeConvergesToRunParallel is the acceptance test for mesh
// mode: a 3-node hub-less mesh campaign — every node running the accept
// loop plus uplinks, bootstrapped from a single seed address — must reach
// the same final edge and unique-crash counts as an equal-budget
// single-process 3-worker RunParallel campaign with the same seed, and
// must KEEP converging after one node is killed mid-campaign and a
// replacement bootstraps back in (partition/heal). No hub is configured
// anywhere: node A is only the bootstrap address, and the campaign
// finishes with A's accept loop being one of three equals.
func TestMeshThreeNodeConvergesToRunParallel(t *testing.T) {
	const (
		seed   = 77
		window = 512
		slice  = 4000 // per-node executions per phase
	)

	// Control: one process, 3 workers, same campaign seed, equal total
	// budget (3 nodes × 3 slices — the killed node's third is re-run by
	// its replacement).
	control := newConvFleet(t, seed, 3, 0)
	control.Run(9 * slice)
	want := control.Stats()
	if want.Edges == 0 || want.UniqueCrashes == 0 {
		t.Fatalf("control campaign found nothing (edges %d, crashes %d)", want.Edges, want.UniqueCrashes)
	}

	fleetA := newConvFleet(t, seed, 1, 0)
	fleetB := newConvFleet(t, seed, 1, 1)
	fleetC := newConvFleet(t, seed, 1, 2)
	nodeA := newConvMesh(t, fleetA, "node-a", false)
	nodeB := newConvMesh(t, fleetB, "node-b", false, nodeA.Addr())
	nodeC := newConvMesh(t, fleetC, "node-c", false, nodeA.Addr())

	// Phase 1: all three nodes fuzz concurrently.
	runMeshes(t, window, map[*Node]int{nodeA: slice, nodeB: slice, nodeC: slice})

	// Partition: node C dies. Its synced work survives in its peers; the
	// remaining links keep the campaign converging.
	nodeC.Close()

	// Phase 2: the survivors keep fuzzing (their links to C fail and are
	// tolerated).
	runMeshes(t, window, map[*Node]int{nodeA: 2 * slice, nodeB: 2 * slice})

	// Heal: a replacement node re-runs stream 2 from scratch on a fresh
	// fleet and bootstraps back into the mesh from the same seed address.
	fleetC2 := newConvFleet(t, seed, 1, 2)
	nodeC2 := newConvMesh(t, fleetC2, "node-c2", false, nodeA.Addr())

	// Phase 3: all three again; C2 spends the killed node's remaining
	// budget plus a make-up slice for the work lost with C's local state.
	runMeshes(t, window, map[*Node]int{nodeA: 3 * slice, nodeB: 3 * slice, nodeC2: 2 * slice})
	settle(t, nodeA, nodeB, nodeC2)

	fleets := map[string]*core.Fleet{"node-a": fleetA, "node-b": fleetB, "node-c2": fleetC2}
	for id, f := range fleets {
		s := f.Stats()
		if s.Edges != want.Edges {
			t.Errorf("%s edges = %d, single-process RunParallel edges = %d", id, s.Edges, want.Edges)
		}
		if s.UniqueCrashes != want.UniqueCrashes {
			t.Errorf("%s unique crashes = %d, single-process = %d", id, s.UniqueCrashes, want.UniqueCrashes)
		}
	}

	// Mesh-shaped, not hub-shaped: the seed node is reachable AND has
	// peers of its own in the book, and the healed node linked to BOTH
	// survivors (one learned through the peer exchange, having
	// bootstrapped from a single address).
	if _, inbound, _ := nodeA.PeerStats(); inbound < 2 {
		t.Errorf("seed node has %d inbound sessions, want >= 2", inbound)
	}
	if uplinks, _, known := nodeC2.PeerStats(); uplinks < 2 || known < 2 {
		t.Errorf("healed node: %d uplinks, %d known peers — peer exchange did not spread the mesh (want >= 2 each)", uplinks, known)
	}
}

// TestMeshRingTopologyConverges pins the StaticOnly mode: three nodes in a
// directed ring (A→B→C→A), no learned dialing, must still converge — every
// link exchanges both directions, so a connected directed topology
// suffices — while each node keeps exactly its one configured uplink.
func TestMeshRingTopologyConverges(t *testing.T) {
	const (
		seed   = 101
		window = 512
		budget = 6000
	)
	fleetA := newConvFleet(t, seed, 1, 0)
	fleetB := newConvFleet(t, seed, 1, 1)
	fleetC := newConvFleet(t, seed, 1, 2)
	nodeA := newConvMesh(t, fleetA, "ring-a", true)
	nodeB := newConvMesh(t, fleetB, "ring-b", true)
	nodeC := newConvMesh(t, fleetC, "ring-c", true)
	// Wire the ring once every node has a bound address.
	nodeA.AddPeer(nodeB.Addr())
	nodeB.AddPeer(nodeC.Addr())
	nodeC.AddPeer(nodeA.Addr())

	runMeshes(t, window, map[*Node]int{nodeA: budget, nodeB: budget, nodeC: budget})
	settle(t, nodeA, nodeB, nodeC)

	edges := fleetA.Stats().Edges
	if edges == 0 {
		t.Fatal("ring campaign found no coverage")
	}
	for id, f := range map[string]*core.Fleet{"ring-b": fleetB, "ring-c": fleetC} {
		if got := f.Stats().Edges; got != edges {
			t.Errorf("%s edges = %d, ring-a edges = %d: ring did not converge", id, got, edges)
		}
	}
	for _, m := range []*Node{nodeA, nodeB, nodeC} {
		if uplinks, _, _ := m.PeerStats(); uplinks != 1 {
			t.Errorf("%s keeps %d uplinks in StaticOnly ring, want exactly 1", m.cfg.NodeID, uplinks)
		}
	}
}
