package peachstar

import (
	"bytes"
	"os"
	"path/filepath"
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

// TestCorpusSignaturesReadOnly: reading a campaign's corpus signatures
// changes nothing its next checkpoint stores. The campaign's shared corpus
// holds what a hub session flushed into it, and its worker has since found
// more, so a read that merged the worker into the shared corpus would grow
// the image.
func TestCorpusSignaturesReadOnly(t *testing.T) {
	image := func(read bool) []byte {
		c := newTestCampaign(t, Options{Strategy: PeachStar, Seed: 3})
		hub, err := c.ServeSync("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		runExecs(t, c, 3000, hub.Attachment())
		hub.Close()
		runExecs(t, c, 20000)
		if read && len(c.CorpusSignatures()) == 0 {
			t.Fatal("campaign learned no rule signatures")
		}
		path := filepath.Join(t.TempDir(), "c.ckpt")
		if err := c.Checkpoint(path); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	plain, read := image(false), image(true)
	if !bytes.Equal(plain, read) {
		t.Fatalf("checkpoint is %d bytes after CorpusSignatures, %d without: the read wrote to the campaign", len(read), len(plain))
	}
}
