package fleetnet

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// TestReadFrameAllocatesWhatArrives: a peer that announces the largest
// legal frame and then delivers 16 bytes must not make the reader
// allocate what it announced — the buffer grows with the bytes received.
func TestReadFrameAllocatesWhatArrives(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrame)
	r := io.MultiReader(bytes.NewReader(hdr[:]), bytes.NewReader(make([]byte, 16)))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, _, err := readFrame(r, maxFrame)
	runtime.ReadMemStats(&m1)
	if err == nil {
		t.Fatal("a frame cut short after 16 bytes was accepted")
	}
	if grew := m1.TotalAlloc - m0.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("reading a 16-byte stub of a %d-byte frame allocated %d bytes", maxFrame, grew)
	}
}

// TestOversizedHelloRefused: a hello header above the handshake bound is
// answered with an error frame before any payload is read, and the node
// creates no session for the peer.
func TestOversizedHelloRefused(t *testing.T) {
	node := startNode(t, Config{State: core.NewSyncState(0), Target: "conv", Models: convModels(), Logf: t.Logf})
	conn, err := net.Dial("tcp", node.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], maxHandshake+1)
	hdr[4] = frameHello
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	typ, payload, err := readFrame(conn, maxFrame)
	if err != nil || typ != frameError {
		t.Fatalf("reply to an oversized hello: type %d, %v; want an error frame", typ, err)
	}
	t.Logf("node refused: %s", decodeError(payload))
	waitFor(t, "handler exit", func() bool { return node.connCount() == 0 })
	node.mu.Lock()
	sessions := len(node.leaves)
	node.mu.Unlock()
	if sessions != 0 {
		t.Fatalf("the refused peer left %d sessions behind", sessions)
	}
}

// TestNodeBacksOffDeadUplink pins the one uplink policy: against a peer
// that accepts and hangs up, the first redial is immediate, later ones back
// off, every round — including the rounds the link sits out — reports the
// failure, and the link exchanges promptly once a live node takes the
// address back.
func TestNodeBacksOffDeadUplink(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	var dials atomic.Int64
	accepted := make(chan struct{})
	go func() {
		defer close(accepted)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			dials.Add(1)
			c.Close()
		}
	}()

	fleet := newConvFleet(t, 59, 1, 0)
	leaf := newLeaf(t, Config{Target: "conv", Models: convModels(), NodeID: "backoff-leaf", Logf: t.Logf}, fleet, addr)
	for round := 1; round <= 20; round++ {
		if err := leaf.Sync(); err == nil {
			t.Fatalf("round %d against a dead peer returned nil", round)
		}
		if round == 2 && dials.Load() != 2 {
			t.Fatalf("%d dials after two rounds, want 2: the first redial must not be skipped", dials.Load())
		}
	}
	if n := dials.Load(); n >= 20 {
		t.Fatalf("%d dials in 20 rounds: the dead peer was never backed off", n)
	}
	ln.Close()
	<-accepted

	live, err := NewNode(Config{State: core.NewSyncState(0), Target: "conv", Models: convModels(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := live.ListenAndServe(addr); err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer live.Close()
	for round := 1; leaf.Sync() != nil; round++ {
		if round == 12 {
			t.Fatal("uplink did not exchange within 12 rounds of the peer's return")
		}
	}
}

// TestSyncAfterCloseRevivesUplink: Close tears a connected uplink down,
// and a Sync after Close redials it and exchanges.
func TestSyncAfterCloseRevivesUplink(t *testing.T) {
	hub := startNode(t, Config{State: core.NewSyncState(0), Target: "conv", Models: convModels(), Logf: t.Logf})
	fleet := newConvFleet(t, 61, 1, 0)
	leaf := newLeaf(t, Config{Target: "conv", Models: convModels(), NodeID: "close-leaf", Logf: t.Logf}, fleet, hub.Addr())
	fleet.Run(512)
	if err := leaf.Sync(); err != nil {
		t.Fatal(err)
	}
	leaf.Close()
	if up, _, _ := leaf.PeerStats(); up != 0 {
		t.Fatalf("%d uplinks connected after Close", up)
	}
	if err := leaf.Sync(); err != nil {
		t.Fatalf("Sync after Close = %v, want the link revived", err)
	}
}

// TestLeafHandshakeAnnouncesNothing pins the leaf's hello: a node without
// a listener sends exactly the hello a plain leaf always sent — no
// advertise address, no peer book — and a hub-shaped node's helloAck to it
// carries no peers either.
func TestLeafHandshakeAnnouncesNothing(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hellos := make(chan []byte, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			hellos <- nil
			return
		}
		defer c.Close()
		c.SetDeadline(time.Now().Add(10 * time.Second))
		_, payload, _ := readFrame(c, maxHandshake)
		hellos <- payload
	}()

	fleet := newConvFleet(t, 61, 1, 0)
	leaf := newLeaf(t, Config{Target: "conv", Models: convModels(), NodeID: "quiet-leaf", Logf: t.Logf}, fleet, ln.Addr().String())
	leaf.Sync() // the raw listener never answers; only the hello matters
	payload := <-hellos
	hello, err := decodeHello(payload)
	if err != nil {
		t.Fatalf("leaf hello does not decode: %v", err)
	}
	if hello.advertise != "" || len(hello.peers) != 0 {
		t.Fatalf("leaf announced advertise %q and peers %v; a node without a listener announces neither", hello.advertise, hello.peers)
	}
	want := &helloFrame{version: ProtocolVersion, nodeID: "quiet-leaf", target: "conv", digest: ModelDigest("conv", convModels())}
	if !bytes.Equal(payload, want.encode()) {
		t.Fatalf("leaf hello = %x, want %x", payload, want.encode())
	}

	hub := startNode(t, Config{State: core.NewSyncState(0), Target: "conv", Models: convModels(), Logf: t.Logf})
	conn, err := net.Dial("tcp", hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeFrame(conn, frameHello, payload); err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	typ, reply, err := readFrame(conn, maxHandshake)
	if err != nil || typ != frameHelloAck {
		t.Fatalf("hub reply to the leaf hello: type %d, %v", typ, err)
	}
	ack, err := decodeHelloAck(reply)
	if err != nil {
		t.Fatal(err)
	}
	if len(ack.peers) != 0 {
		t.Fatalf("hub-shaped node answered a leaf with peers %v", ack.peers)
	}
}

// TestHubNeverDialsAnnouncedPeers: a hub — a node with a Fleet that
// listens, has no static peer and is StaticOnly — takes nothing from a
// hello's peer book or advertise address. It relays no peers, keeps no
// uplinks across sync rounds, and never dials the announced listener.
func TestHubNeverDialsAnnouncedPeers(t *testing.T) {
	bait, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var dials atomic.Int64
	accepted := make(chan struct{})
	go func() {
		defer close(accepted)
		for {
			c, err := bait.Accept()
			if err != nil {
				return
			}
			dials.Add(1)
			c.Close()
		}
	}()

	fleet := newConvFleet(t, 67, 1, 0)
	hub := startNode(t, Config{State: fleet.State(), Fleet: fleet, StaticOnly: true, Target: "conv", Models: convModels(), Logf: t.Logf})
	conn, err := net.Dial("tcp", hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := &helloFrame{version: ProtocolVersion, nodeID: "gossip", target: "conv", digest: ModelDigest("conv", convModels()),
		advertise: bait.Addr().String(), peers: []string{bait.Addr().String()}}
	if err := writeFrame(conn, frameHello, hello.encode()); err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	typ, reply, err := readFrame(conn, maxHandshake)
	if err != nil || typ != frameHelloAck {
		t.Fatalf("hub reply to the hello: type %d, %v", typ, err)
	}
	ack, err := decodeHelloAck(reply)
	if err != nil {
		t.Fatal(err)
	}
	if len(ack.peers) != 0 {
		t.Fatalf("hub relayed peers %v", ack.peers)
	}

	for round := 1; round <= 3; round++ {
		if err := hub.Sync(); err != nil {
			t.Fatalf("hub sync round %d: %v", round, err)
		}
	}
	if uplinks, _, known := hub.PeerStats(); uplinks != 0 || known != 0 || len(hub.uplinks) != 0 {
		t.Fatalf("hub keeps %d uplinks (%d connected) and %d known peers, want none", len(hub.uplinks), uplinks, known)
	}
	bait.Close()
	<-accepted
	if n := dials.Load(); n != 0 {
		t.Fatalf("hub dialed the announced listener %d times", n)
	}
}
