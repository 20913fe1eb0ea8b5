package peachstar

import (
	"testing"
)

// TestJoinMeshLoopback is the public-API smoke test for hub-less
// campaigns: two mesh nodes on loopback — the second bootstrapping from
// the first's address — fuzz real libmodbus streams and settle on one
// union edge count with no hub anywhere.
func TestJoinMeshLoopback(t *testing.T) {
	campA := newSyncCampaign(t, 0)
	nodeA, err := campA.JoinMesh(MeshOptions{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer nodeA.Close()

	campB := newSyncCampaign(t, 1)
	nodeB, err := campB.JoinMesh(MeshOptions{Listen: "127.0.0.1:0", Peers: []string{nodeA.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer nodeB.Close()

	runExecs(t, campB, 6000, nodeB.Attachment())
	runExecs(t, campA, 6000, nodeA.Attachment())
	// Settlement: one more window each so the last finisher's material
	// reaches the other node.
	for _, n := range []*SyncNode{nodeB, nodeA} {
		if err := n.Sync(); err != nil {
			t.Fatal(err)
		}
	}

	sa, sb := campA.Stats(), campB.Stats()
	if sa.Edges == 0 || sa.Edges != sb.Edges {
		t.Fatalf("mesh did not settle: node A %d edges, node B %d", sa.Edges, sb.Edges)
	}
	if rexecs, _, _ := nodeA.RemoteStats(); rexecs < 6000 {
		t.Fatalf("node A heard of %d remote execs, want >= 6000", rexecs)
	}
	_, inbound, _ := nodeA.PeerStats()
	uplinks, _, known := nodeB.PeerStats()
	if inbound < 1 || uplinks < 1 || known < 1 {
		t.Fatalf("mesh links missing: A inbound %d, B uplinks %d known %d", inbound, uplinks, known)
	}
}
