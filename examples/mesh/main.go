// Mesh: three hub-less fleet nodes on loopback in a single process — the
// smallest complete demonstration of a gossip-mesh Peach* campaign. There
// is no hub: every node runs the sync accept loop AND keeps uplinks to its
// peers, and the whole mesh is bootstrapped from one seed address (the
// handshake peer exchange spreads the rest). On real hardware each block
// below runs as its own `peachstar -mesh` process on its own machine; the
// protocol is identical.
//
// Each node's campaign runs as one Campaign.Start session with its mesh
// membership attached; the node handles are kept across sessions for the
// settlement rounds.
//
//	go run ./examples/mesh [-execs N]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sync"

	"repro/peachstar"
)

func main() {
	execs := flag.Int("execs", 30000, "total execution budget across the three nodes")
	flag.Parse()

	// Every node shares the campaign seed but fuzzes its own RNG stream
	// (SeedStream), so the mesh is one reproducible campaign with no
	// duplicated work. On separate machines each block is
	// `peachstar -mesh :7712 -advertise host<k>:7712 -peers host0:7712 -seed 1 -seed-stream <k>`.
	type node struct {
		name     string
		campaign *peachstar.Campaign
		mesh     *peachstar.SyncNode
	}
	var nodes []*node
	var seedAddr string
	for k := 0; k < 3; k++ {
		target, err := peachstar.NewTarget("libmodbus")
		if err != nil {
			log.Fatal(err)
		}
		campaign, err := peachstar.NewCampaign(peachstar.Options{
			Target:     target,
			Strategy:   peachstar.PeachStar,
			Seed:       1,
			SeedStream: k,
		})
		if err != nil {
			log.Fatal(err)
		}
		opts := peachstar.MeshOptions{Listen: "127.0.0.1:0"}
		if k > 0 {
			// Later nodes bootstrap from the first node's address only;
			// they learn of each other through the handshake peer
			// exchange and dial direct links.
			opts.Peers = []string{seedAddr}
		}
		mesh, err := campaign.JoinMesh(opts)
		if err != nil {
			log.Fatal(err)
		}
		defer mesh.Close()
		if k == 0 {
			seedAddr = mesh.Addr()
		}
		nodes = append(nodes, &node{name: fmt.Sprintf("node-%d", k), campaign: campaign, mesh: mesh})
		fmt.Printf("%s: accepting mesh peers on %s\n", nodes[k].name, mesh.Addr())
	}

	// Run all three nodes concurrently, each spending a third of the
	// budget and syncing with its peers every 1024 executions: one
	// session per node, the mesh node attached borrowed (WithMesh would
	// instead create a node owned by — and closed with — the session).
	var wg sync.WaitGroup
	for _, n := range nodes {
		run, err := n.campaign.Start(context.Background(), peachstar.RunConfig{
			Execs:     *execs / 3,
			SyncEvery: 1024,
			Attach:    []peachstar.Attachment{n.mesh.Attachment()},
		})
		if err != nil {
			log.Fatal(err)
		}
		wg.Add(1)
		go func(n *node, run *peachstar.Run) {
			defer wg.Done()
			if err := run.Wait(); err != nil {
				log.Printf("%s: %v", n.name, err)
			}
		}(n, run)
	}
	wg.Wait()

	// Settlement rounds: with no hub holding the union, a node's final
	// discoveries reach everyone after at most a couple of gossip hops.
	for round := 0; round < 2; round++ {
		for _, n := range nodes {
			if err := n.mesh.Sync(); err != nil {
				log.Printf("%s settlement: %v", n.name, err)
			}
		}
	}

	// Every node now agrees on the campaign union — and every node both
	// accepted inbound peers or kept uplinks, with no designated hub.
	for _, n := range nodes {
		s := n.campaign.Stats()
		uplinks, inbound, known := n.mesh.PeerStats()
		fmt.Printf("%s: %d execs locally, %d edges, %d unique crashes, corpus %d puzzles (%d uplinks, %d inbound, %d known peers)\n",
			n.name, s.Execs, s.Edges, s.UniqueCrashes, s.CorpusPuzzles, uplinks, inbound, known)
	}

	a, b, c := nodes[0].campaign.Stats(), nodes[1].campaign.Stats(), nodes[2].campaign.Stats()
	if a.Edges == b.Edges && b.Edges == c.Edges {
		fmt.Printf("mesh converged: all nodes report %d edges with no hub\n", a.Edges)
	} else {
		fmt.Printf("mesh NOT converged: %d vs %d vs %d edges\n", a.Edges, b.Edges, c.Edges)
	}
}
