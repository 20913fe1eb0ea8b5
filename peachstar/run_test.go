package peachstar

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/crash"
)

// collectEvents drains a finished run's stream into per-type buckets.
func collectEvents(r *Run) (stats []StatsEvent, cov []NewCoverageEvent, crashes []CrashEvent, syncs []SyncWindowEvent) {
	for ev := range r.Events() {
		switch ev := ev.(type) {
		case StatsEvent:
			stats = append(stats, ev)
		case NewCoverageEvent:
			cov = append(cov, ev)
		case CrashEvent:
			crashes = append(crashes, ev)
		case SyncWindowEvent:
			syncs = append(syncs, ev)
		}
	}
	return stats, cov, crashes, syncs
}

// TestStartDeliversTypedEvents: a budgeted session emits at least one
// StatsEvent, coverage growth, and one CrashEvent per unique fault the
// campaign banks — the stream is the campaign, observed.
func TestStartDeliversTypedEvents(t *testing.T) {
	c := newTestCampaign(t, Options{Strategy: PeachStar, Seed: 11})
	r, err := c.Start(context.Background(), RunConfig{Execs: 15000, EventBuffer: 4096})
	if err != nil {
		t.Fatal(err)
	}
	stats, cov, crashes, _ := collectEvents(r)
	if err := r.Wait(); err != nil {
		t.Fatalf("Wait = %v, want nil on a spent budget", err)
	}

	if len(stats) == 0 {
		t.Fatal("no StatsEvent delivered")
	}
	final := stats[len(stats)-1].Stats
	exact := c.Stats()
	if final.Execs != exact.Execs || final.Edges != exact.Edges || final.UniqueCrashes != exact.UniqueCrashes {
		t.Fatalf("final StatsEvent %+v does not settle to the exact snapshot %+v", final, exact)
	}
	if len(cov) == 0 || cov[len(cov)-1].Edges != exact.Edges {
		t.Fatalf("coverage events did not track the union: %d events, campaign has %d edges", len(cov), exact.Edges)
	}

	banked := c.Crashes()
	if len(banked) == 0 {
		t.Fatal("campaign found no crashes; budget too small for this assertion")
	}
	seen := make(map[string]bool)
	for _, ev := range crashes {
		if seen[crash.RecordKey(ev.Record)] {
			t.Fatalf("crash %s at %s reported twice", ev.Record.Kind, ev.Record.Site)
		}
		seen[crash.RecordKey(ev.Record)] = true
	}
	for _, rec := range banked {
		if !seen[crash.RecordKey(rec)] {
			t.Fatalf("banked crash %s at %s never appeared on the event stream", rec.Kind, rec.Site)
		}
	}
}

// TestEmitNeverDropsCrashes: with a stalled consumer and a full buffer,
// eviction re-queues buffered CrashEvents and drops progress events
// instead — every crash that fits the buffer survives any amount of
// later traffic, in order.
func TestEmitNeverDropsCrashes(t *testing.T) {
	r := &Run{events: make(chan Event, 8)}
	var want []string
	for i := 0; i < 4; i++ {
		// Flood with droppable events before and after each crash.
		for j := 0; j < 8; j++ {
			r.emit(StatsEvent{})
			r.emit(NewCoverageEvent{})
		}
		site := fmt.Sprintf("site-%d", i)
		r.emit(CrashEvent{Record: &CrashRecord{Site: site}})
		want = append(want, site)
	}
	for j := 0; j < 16; j++ {
		r.emit(StatsEvent{})
	}
	close(r.events)
	var got []string
	for ev := range r.events {
		if c, ok := ev.(CrashEvent); ok {
			got = append(got, c.Record.Site)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("crashes delivered = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("crash order broken: %v, want %v", got, want)
		}
	}
}

// TestStartCancelMidWindow: canceling the context stops an unbounded
// serial session within merge-window granularity, Wait reports the
// context's error, and the stream still closes with a final StatsEvent.
func TestStartCancelMidWindow(t *testing.T) {
	c := newTestCampaign(t, Options{Strategy: PeachStar, Seed: 3})
	ctx, cancel := context.WithCancel(context.Background())
	r, err := c.Start(ctx, RunConfig{}) // no exec bound, no deadline
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	began := time.Now()
	cancel()
	if err := r.Wait(); err != context.Canceled {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	if took := time.Since(began); took > 2*time.Second {
		t.Fatalf("cancellation took %v, want merge-window promptness", took)
	}
	stats, _, _, _ := collectEvents(r)
	if len(stats) == 0 {
		t.Fatal("canceled run closed its stream without a final StatsEvent")
	}
	if r.Snapshot().Execs == 0 {
		t.Fatal("session ran 50ms but snapshot shows no executions")
	}
}

// TestStartStopDuringMeshSync: Stop() lands while a two-node mesh
// session is mid-campaign (sync exchanges included) and ends it
// gracefully — Wait nil, results intact, the surviving node unaffected.
func TestStartStopDuringMeshSync(t *testing.T) {
	campA := newSyncCampaign(t, 0)
	nodeA, err := campA.JoinMesh(MeshOptions{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer nodeA.Close()

	campB := newSyncCampaign(t, 1)
	rB, err := campB.Start(context.Background(), RunConfig{
		// Unbounded: only Stop ends it. A tight sync cadence keeps a
		// sync exchange almost always in flight or imminent.
		SyncEvery: 256,
		Attach:    []Attachment{WithMesh(MeshOptions{Listen: "127.0.0.1:0", Peers: []string{nodeA.Addr()}})},
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	began := time.Now()
	rB.Stop()
	if err := rB.Wait(); err != nil {
		t.Fatalf("Wait after Stop = %v, want nil", err)
	}
	if took := time.Since(began); took > 5*time.Second {
		t.Fatalf("graceful stop took %v", took)
	}
	_, _, _, syncs := collectEvents(rB)
	if len(syncs) == 0 {
		t.Fatal("mesh session recorded no sync windows")
	}
	if campB.Stats().Execs == 0 {
		t.Fatal("mesh session banked no executions")
	}
}

// TestStartCancelMeshPromptness is the acceptance bound: a canceled
// context ends a mesh session — one with an unreachable peer pinning a
// dial in flight — within one sync window plus the mesh dial timeout.
func TestStartCancelMeshPromptness(t *testing.T) {
	c := newSyncCampaign(t, 0)
	ctx, cancel := context.WithCancel(context.Background())
	r, err := c.Start(ctx, RunConfig{
		SyncEvery: 512,
		// 127.0.0.1:1 never answers: every window pays a failed dial.
		Attach: []Attachment{WithMesh(MeshOptions{Listen: "127.0.0.1:0", Peers: []string{"127.0.0.1:1"}})},
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	began := time.Now()
	cancel()
	if err := r.Wait(); err != context.Canceled {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	// Bound: one sync window of fuzzing (well under a second) plus the
	// 2s mesh dial timeout, with scheduling slack.
	if took := time.Since(began); took > 4*time.Second {
		t.Fatalf("mesh cancellation took %v, want < sync window + dial timeout", took)
	}
}

// TestStartStopIdempotent: double Stop, concurrent and repeated Wait,
// and Stop-after-done are all safe and consistent.
func TestStartStopIdempotent(t *testing.T) {
	c := newTestCampaign(t, Options{Strategy: PeachStar, Seed: 5})
	r, err := c.Start(context.Background(), RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	done := make(chan error, 2)
	go func() { done <- r.Wait() }()
	go func() { done <- r.Wait() }()
	r.Stop()
	r.Stop()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("concurrent Wait %d = %v, want nil", i, err)
		}
	}
	r.Stop() // after done: no-op
	if err := r.Wait(); err != nil {
		t.Fatalf("Wait after done = %v", err)
	}
	select {
	case <-r.Done():
	default:
		t.Fatal("Done() not closed after Wait returned")
	}
}

// TestStartRejectsConcurrentSessions: one session at a time per campaign;
// the slot frees when the session ends.
func TestStartRejectsConcurrentSessions(t *testing.T) {
	c := newTestCampaign(t, Options{Strategy: PeachStar, Seed: 7})
	r, err := c.Start(context.Background(), RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Start(context.Background(), RunConfig{Execs: 100}); err == nil {
		t.Fatal("second concurrent Start should fail")
	}
	r.Stop()
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	r2, err := c.Start(context.Background(), RunConfig{Execs: c.Execs() + 256})
	if err != nil {
		t.Fatalf("Start after previous session ended: %v", err)
	}
	if err := r2.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestStartSnapshotDuringRun: Snapshot is safe while workers fuzz and
// converges to the exact figures once the session ends (the satellite-2
// contract: approximate counters come from the race-safe published
// path).
func TestStartSnapshotDuringRun(t *testing.T) {
	c := newTestCampaign(t, Options{Strategy: PeachStar, Seed: 13, Workers: 2})
	r, err := c.Start(context.Background(), RunConfig{Execs: 20000})
	if err != nil {
		t.Fatal(err)
	}
	// Hammer Snapshot concurrently with the run; -race is the assertion.
	for i := 0; i < 50; i++ {
		_ = r.Snapshot()
		time.Sleep(time.Millisecond)
	}
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	snap, exact := r.Snapshot(), c.Stats()
	if snap.Execs != exact.Execs || snap.Edges != exact.Edges ||
		snap.UniqueCrashes != exact.UniqueCrashes || snap.CorpusPuzzles != exact.CorpusPuzzles {
		t.Fatalf("post-run Snapshot %+v != exact Stats %+v", snap, exact)
	}
}
