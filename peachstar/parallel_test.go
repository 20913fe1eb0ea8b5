package peachstar

import (
	"context"
	"testing"

	"repro/internal/datamodel"
)

// customTarget is a user-defined target outside the registry: a two-field
// packet whose handler branches on the opcode byte.
type customTarget struct{}

func (customTarget) Name() string { return "custom-unregistered" }

func (customTarget) Models() []*Model {
	return []*Model{datamodel.NewModel("pkt",
		datamodel.Num("op", 1, 1),
		datamodel.BytesVar("body", 0, 8, []byte{0}),
	)}
}

func (customTarget) Handle(tr *Tracer, packet []byte) {
	ids := Blocks("custom", 4)
	tr.Hit(ids[0])
	if len(packet) > 0 && packet[0] == 1 {
		tr.Hit(ids[1])
	} else {
		tr.Hit(ids[2])
	}
}

// impostorTarget is a custom target whose Name collides with a registered
// one; the registry fallback must not clone the stock target in its place.
type impostorTarget struct{ customTarget }

func (impostorTarget) Name() string { return "libmodbus" }

func newTestCampaign(t *testing.T, opts Options) *Campaign {
	t.Helper()
	if opts.Target == nil {
		tgt, err := NewTarget("libmodbus")
		if err != nil {
			t.Fatal(err)
		}
		opts.Target = tgt
	}
	c, err := NewCampaign(opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// runExecs is the suite's blocking driver: one Start session to the
// absolute exec budget, with any attachments, waited to its end.
func runExecs(t *testing.T, c *Campaign, execs int, attach ...Attachment) {
	t.Helper()
	r, err := c.Start(context.Background(), RunConfig{Execs: execs, Attach: attach})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestParallelCampaignRuns exercises Options.Workers end to end on a
// built-in target: the default registry-backed target factory, budget
// sharding, and aggregated stats.
func TestParallelCampaignRuns(t *testing.T) {
	c := newTestCampaign(t, Options{Strategy: PeachStar, Seed: 2, Workers: 4})
	if c.Workers() != 4 {
		t.Fatalf("workers = %d, want 4", c.Workers())
	}
	runExecs(t, c, 6000)
	s := c.Stats()
	if s.Execs < 6000 {
		t.Fatalf("execs = %d, want >= 6000", s.Execs)
	}
	if s.Paths == 0 || s.Edges == 0 || s.CorpusPuzzles == 0 {
		t.Fatalf("campaign learned nothing: %+v", s)
	}
}

// TestParallelCustomTargetNeedsFactory: an unregistered custom target
// cannot be cloned through the registry, so Workers > 1 requires an
// explicit TargetFactory — and works with one.
func TestParallelCustomTargetNeedsFactory(t *testing.T) {
	if _, err := NewCampaign(Options{
		Target:  customTarget{},
		Seed:    1,
		Workers: 2,
	}); err == nil {
		t.Fatal("unregistered target with Workers=2 and no factory should error")
	}

	c, err := NewCampaign(Options{
		Target:        customTarget{},
		Seed:          1,
		Workers:       2,
		TargetFactory: func() Target { return customTarget{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	runExecs(t, c, 500)
	if got := c.Stats().Execs; got < 500 {
		t.Fatalf("execs = %d, want >= 500", got)
	}
}

// TestParallelNameCollisionNeedsFactory: a custom target that merely shares
// a registered target's name must not be silently replaced by the registry
// instance on workers 2..N — without an explicit factory it is an error.
func TestParallelNameCollisionNeedsFactory(t *testing.T) {
	if _, err := NewCampaign(Options{
		Target:  impostorTarget{},
		Seed:    1,
		Workers: 2,
	}); err == nil {
		t.Fatal("impostor target with Workers=2 and no factory should error")
	}
	// Serial campaigns with the impostor stay fine.
	c, err := NewCampaign(Options{Target: impostorTarget{}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	runExecs(t, c, 200)
}
