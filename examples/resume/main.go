// Resume: durable campaign checkpoints and warm restart.
//
// The first half of the campaign runs with a checkpoint file configured
// (RunConfig.CheckpointPath), exactly as a long-running fuzzer would.
// Then the process "dies": we throw the campaign away and rebuild it from
// nothing but the checkpoint file, spend the remaining budget, and compare
// against a campaign that was never interrupted. For a serial in-process
// campaign the two are bit-for-bit identical — the checkpoint carries
// every stateful layer, target wear included.
//
//	go run ./examples/resume
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"reflect"

	"repro/peachstar"
)

func newCampaign() *peachstar.Campaign {
	target, err := peachstar.NewTarget("libmodbus")
	if err != nil {
		log.Fatal(err)
	}
	campaign, err := peachstar.NewCampaign(peachstar.Options{
		Target:   target,
		Strategy: peachstar.PeachStar,
		Seed:     1,
		Adaptive: true, // learned mutator weights resume too
	})
	if err != nil {
		log.Fatal(err)
	}
	return campaign
}

// runTo spends the campaign's budget up to the absolute exec target.
func runTo(c *peachstar.Campaign, execs int) {
	run, err := c.Start(context.Background(), peachstar.RunConfig{Execs: execs})
	if err != nil {
		log.Fatal(err)
	}
	if err := run.Wait(); err != nil {
		log.Fatal(err)
	}
}

func main() {
	execs := flag.Int("execs", 30000, "total execution budget")
	flag.Parse()

	dir, err := os.MkdirTemp("", "peachstar-resume")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	ckpt := filepath.Join(dir, "campaign.ckpt")

	// Phase 1: fuzz the first half with durable checkpoints enabled.
	// Checkpoints are written atomically every CheckpointEvery execs and
	// once at session end; each write surfaces as a CheckpointEvent.
	first := newCampaign()
	run, err := first.Start(context.Background(), peachstar.RunConfig{
		Execs:           *execs / 2,
		CheckpointPath:  ckpt,
		CheckpointEvery: *execs / 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	for ev := range run.Events() {
		if ce, ok := ev.(peachstar.CheckpointEvent); ok && ce.Err == nil {
			fmt.Printf("checkpoint at %6d execs (%d bytes)\n", ce.Execs, ce.Bytes)
		}
	}
	if err := run.Wait(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("first life ends: %d execs, %d edges\n",
		first.Stats().Execs, first.Stats().Edges)

	// The process dies here. Nothing of `first` survives but the file.

	// Phase 2: warm restart. A freshly built campaign restores the
	// checkpoint and spends the remaining budget (RunConfig.Execs is the
	// absolute target, so it continues rather than starting over).
	resumed := newCampaign()
	if err := resumed.RestoreCheckpoint(ckpt); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resumed: %d execs, %d edges\n",
		resumed.Stats().Execs, resumed.Stats().Edges)
	runTo(resumed, *execs)

	// The reference: the same campaign, never interrupted.
	straight := newCampaign()
	runTo(straight, *execs)

	if !reflect.DeepEqual(resumed.Stats(), straight.Stats()) {
		log.Fatalf("resumed campaign diverged:\n got %+v\nwant %+v",
			resumed.Stats(), straight.Stats())
	}
	s := resumed.Stats()
	fmt.Printf("resume: continuation matches the uninterrupted campaign (%d execs, %d edges, %d crashes)\n",
		s.Execs, s.Edges, s.UniqueCrashes)
}
