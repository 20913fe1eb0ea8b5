package peachstar

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

// newSyncCampaign builds a campaign on the given seed stream for the
// distributed-API tests.
func newSyncCampaign(t *testing.T, stream int) *Campaign {
	t.Helper()
	tgt, err := NewTarget("libmodbus")
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCampaign(Options{
		Target:     tgt,
		Strategy:   PeachStar,
		Seed:       5,
		SeedStream: stream,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestServeAndDialSync is the public-API smoke test for distributed
// campaigns: a hub campaign and a leaf campaign on loopback exchange state
// until both report the same edge union.
func TestServeAndDialSync(t *testing.T) {
	hubCampaign := newSyncCampaign(t, 0)
	srv, err := hubCampaign.ServeSync("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	leafCampaign := newSyncCampaign(t, 1)
	leaf, err := leafCampaign.DialSync(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer leaf.Close()

	runExecs(t, hubCampaign, 8000)
	runExecs(t, leafCampaign, 8000, leaf.Attachment())
	if uplinks, _, _ := leaf.PeerStats(); uplinks != 1 {
		t.Fatal("leaf should hold a session after an attached run")
	}
	// One more hub-side flush so the hub campaign's workers pull what the
	// leaf pushed, then a final leaf window to settle both directions.
	runExecs(t, hubCampaign, hubCampaign.Stats().Execs+256)
	if err := leaf.Sync(); err != nil {
		t.Fatal(err)
	}

	rexecs, _, connected := srv.RemoteStats()
	if rexecs < 8000 || connected != 1 {
		t.Fatalf("hub remote stats = (%d execs, %d connected), want (>=8000, 1)", rexecs, connected)
	}
	fexecs, fedges, leaves, ok := leaf.FleetStats()
	if !ok || leaves != 1 {
		t.Fatalf("leaf fleet stats = (%d, %d, %d, %v)", fexecs, fedges, leaves, ok)
	}
	if got, want := leafCampaign.Stats().Edges, fedges; got != want {
		t.Fatalf("leaf campaign edges = %d, hub union = %d after settlement", got, want)
	}
}

// TestDialSyncRejectsHubLessAddress: dialing a dead address fails on the
// first sync, not at DialSync time, and the campaign remains usable.
func TestDialSyncRejectsHubLessAddress(t *testing.T) {
	c := newSyncCampaign(t, 0)
	leaf, err := c.DialSync("127.0.0.1:1") // nothing listens on port 1
	if err != nil {
		t.Fatal(err)
	}
	defer leaf.Close()
	runExecs(t, c, 512)
	if err := leaf.Sync(); err == nil {
		t.Fatal("sync against a dead hub should fail")
	}
	if c.Stats().Execs < 512 {
		t.Fatal("campaign lost progress over a failed sync")
	}
}

// TestHubAttachmentPublishesLocalWork: a one-worker fleet never syncs by
// itself, so it is the hub attachment's sync that publishes a serving
// campaign's discoveries into the shared state its leaves pull from — for
// a session-owned hub and a borrowed one alike. A fresh leaf's first
// exchange must receive all of it, and what the leaf then pushes must be
// in the hub campaign's figures after its next window.
func TestHubAttachmentPublishesLocalWork(t *testing.T) {
	for _, owned := range []bool{true, false} {
		t.Run(fmt.Sprintf("owned=%v", owned), func(t *testing.T) {
			hubCampaign := newSyncCampaign(t, 0)
			if owned {
				// The session's own hub closes with it; a second server on
				// the campaign then shows a leaf what that session published.
				runExecs(t, hubCampaign, 4000, WithHub("127.0.0.1:0"))
			}
			srv, err := hubCampaign.ServeSync("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			if !owned {
				runExecs(t, hubCampaign, 4000, srv.Attachment())
			}

			leafCampaign := newSyncCampaign(t, 1)
			leaf, err := leafCampaign.DialSync(srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer leaf.Close()
			if err := leaf.Sync(); err != nil {
				t.Fatal(err)
			}
			_, fedges, _, _ := leaf.FleetStats()
			got, want := leafCampaign.Stats().Edges, hubCampaign.Stats().Edges
			if want == 0 || fedges != want || got != want {
				t.Fatalf("hub campaign has %d edges, its shared state served %d, the leaf holds %d", want, fedges, got)
			}

			runExecs(t, leafCampaign, 6000, leaf.Attachment())
			pushed := leafCampaign.Stats()
			if pushed.UniqueCrashes == 0 {
				t.Fatal("leaf found no crash; budget too small for this assertion")
			}
			runExecs(t, hubCampaign, hubCampaign.Stats().Execs+256, srv.Attachment())
			if err := leaf.Sync(); err != nil {
				t.Fatal(err)
			}
			hs, ls := hubCampaign.Stats(), leafCampaign.Stats()
			if hs.UniqueCrashes < pushed.UniqueCrashes || hs.CorpusPuzzles < pushed.CorpusPuzzles || hs.Edges != ls.Edges {
				t.Fatalf("leaf pushed %d crashes, %d puzzles; hub campaign has %d, %d; edges hub %d, leaf %d",
					pushed.UniqueCrashes, pushed.CorpusPuzzles, hs.UniqueCrashes, hs.CorpusPuzzles, hs.Edges, ls.Edges)
			}
		})
	}
}

// ackGate is a loopback proxy in front of a hub that parks the first sync
// reply it relays (fleetnet frame type 4, syncAck) until release closes:
// a leaf's first exchange stays in flight for as long as a test wants.
type ackGate struct {
	ln      net.Listener
	armed   atomic.Bool
	held    chan struct{} // closed once the first reply is parked
	release chan struct{}
	wg      sync.WaitGroup
}

func newAckGate(t *testing.T, upstream string) *ackGate {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	g := &ackGate{ln: ln, held: make(chan struct{}), release: make(chan struct{})}
	g.armed.Store(true)
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", upstream)
			if err != nil {
				down.Close()
				continue
			}
			leafGone := make(chan struct{})
			g.wg.Add(2)
			go func() {
				defer g.wg.Done()
				io.Copy(up, down)
				close(leafGone)
				up.Close()
				down.Close()
			}()
			go func() {
				defer g.wg.Done()
				g.relay(down, up, leafGone)
				up.Close()
				down.Close()
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		g.wg.Wait()
	})
	return g
}

func (g *ackGate) Addr() string { return g.ln.Addr().String() }

// relay copies whole frames from the hub to the leaf, parking the first
// sync reply until release — or until the leaf hangs up.
func (g *ackGate) relay(leaf, hub net.Conn, leafGone <-chan struct{}) {
	var hdr [5]byte // 4-byte big-endian length (type byte included), type
	for {
		if _, err := io.ReadFull(hub, hdr[:]); err != nil {
			return
		}
		frame := make([]byte, 4+binary.BigEndian.Uint32(hdr[:4]))
		copy(frame, hdr[:])
		if _, err := io.ReadFull(hub, frame[5:]); err != nil {
			return
		}
		if hdr[4] == 4 && g.armed.CompareAndSwap(true, false) {
			close(g.held)
			select {
			case <-g.release:
			case <-leafGone:
				return
			}
		}
		if _, err := leaf.Write(frame); err != nil {
			return
		}
	}
}

// TestLeafWindowOverlapsExchange: a leaf session keeps fuzzing while its
// sync round waits on the wire. Its hub holds back the first reply; the
// window after the round began still runs to completion. Released, the
// session ends gracefully with every execution reported to the hub;
// canceled with the reply still held, it ends promptly and leaves no
// goroutine behind.
func TestLeafWindowOverlapsExchange(t *testing.T) {
	const every = 1024
	for _, viaCancel := range []bool{false, true} {
		t.Run(map[bool]string{false: "release", true: "cancel"}[viaCancel], func(t *testing.T) {
			hubCampaign := newSyncCampaign(t, 0)
			srv, err := hubCampaign.ServeSync("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			gate := newAckGate(t, srv.Addr())
			leafCampaign := newSyncCampaign(t, 1)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			exited := leakcheck.Mark()
			run, err := leafCampaign.Start(ctx, RunConfig{SyncEvery: every, Attach: []Attachment{WithLeaf(gate.Addr())}})
			if err != nil {
				t.Fatal(err)
			}
			defer run.Stop()
			deadline := time.Now().Add(10 * time.Second)
			select {
			case <-gate.held:
			case <-time.After(time.Until(deadline)):
				t.Fatal("the leaf's first exchange never reached the hub")
			}
			// The round began at the first window boundary; the next window
			// runs while its reply is held.
			for run.Snapshot().Execs < 2*every {
				if time.Now().After(deadline) {
					t.Fatalf("the session stalled at %d execs while its exchange was in flight", run.Snapshot().Execs)
				}
				runtime.Gosched()
			}

			if viaCancel {
				began := time.Now()
				cancel()
				if err := run.Wait(); err != context.Canceled {
					t.Fatalf("Wait after cancel = %v, want context.Canceled", err)
				}
				if took := time.Since(began); took > 5*time.Second {
					t.Fatalf("cancel with an exchange in flight took %v", took)
				}
				// The proxy and the hub drop the link once the leaf hangs up.
				exited(t, 5*time.Second)
				return
			}
			close(gate.release)
			// Stop mid-window, past the latest round's push: only the final
			// synchronous round can report the rest.
			for n := run.Snapshot().Execs; n <= 2*every || n%every == 0; n = run.Snapshot().Execs {
				if time.Now().After(deadline) {
					t.Fatalf("the session stalled at %d execs after the reply was released", n)
				}
				runtime.Gosched()
			}
			run.Stop()
			if err := run.Wait(); err != nil {
				t.Fatalf("Wait after Stop = %v", err)
			}
			if execs, _, _ := srv.RemoteStats(); execs != leafCampaign.Stats().Execs {
				t.Fatalf("hub saw %d remote execs, the leaf ran %d", execs, leafCampaign.Stats().Execs)
			}
		})
	}
}
