package peachstar

import (
	"fmt"
	"testing"
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
	runExecs(t, hubCampaign, hubCampaign.Execs()+256)
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
			runExecs(t, hubCampaign, hubCampaign.Execs()+256, srv.Attachment())
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
