package peachstar

import (
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
	if !leaf.Connected() {
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
