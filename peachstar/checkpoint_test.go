package peachstar

import (
	"testing"

	"repro/internal/fleetnet"
)

// TestCampaignDigestCached: the digest NewCampaign computes once — and
// every checkpoint is sealed under — is the fleet sync protocol's model
// digest, for every bundled target.
func TestCampaignDigestCached(t *testing.T) {
	names := TargetNames()
	if len(names) != 6 {
		t.Fatalf("got %d registered targets, want 6: %v", len(names), names)
	}
	for _, name := range names {
		tgt, err := NewTarget(name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewCampaign(Options{Target: tgt, Strategy: PeachStar, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		want := fleetnet.ModelDigest(tgt.Name(), tgt.Models())
		if c.digest != want {
			t.Errorf("%s: digest %#x, want %#x", name, c.digest, want)
		}
	}
}
