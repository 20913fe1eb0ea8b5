package fleetnet

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/coverage"
	"repro/internal/crash"
	"repro/internal/datamodel"
	"repro/internal/mem"
	"repro/internal/sandbox"
	"repro/internal/targets"

	_ "repro/internal/targets/modbus"
)

// newLeafFleet builds a 1-worker fleet fuzzing RNG stream `stream` of the
// campaign seed — the distributed mirror of worker `stream` in a local
// multi-worker fleet.
func newLeafFleet(t *testing.T, seed uint64, stream int) (*core.Fleet, targets.Target) {
	t.Helper()
	tgt, err := targets.New("libmodbus")
	if err != nil {
		t.Fatal(err)
	}
	f, err := core.NewFleet(core.Config{
		Models:   tgt.Models(),
		Target:   tgt,
		Strategy: core.StrategyPeachStar,
		Seed:     seed,
	}, core.ParallelConfig{Workers: 1, SeedStream: stream})
	if err != nil {
		t.Fatal(err)
	}
	return f, tgt
}

// newLocalFleet builds the single-process control: a 2-worker fleet over
// the same campaign seed.
func newLocalFleet(t *testing.T, seed uint64) *core.Fleet {
	t.Helper()
	tgt, err := targets.New("libmodbus")
	if err != nil {
		t.Fatal(err)
	}
	f, err := core.NewFleet(core.Config{
		Models:   tgt.Models(),
		Target:   tgt,
		Strategy: core.StrategyPeachStar,
		Seed:     seed,
	}, core.ParallelConfig{
		Workers: 2,
		NewTarget: func() sandbox.Target {
			t2, err := targets.New("libmodbus")
			if err != nil {
				panic(err)
			}
			return t2
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// startHub builds a hub-shaped node — it listens and has no peers — over
// a standalone state.
func startHub(t *testing.T, state *core.SyncState, models []*datamodel.Model) *Node {
	t.Helper()
	return startNode(t, Config{State: state, Target: "libmodbus", Models: models, Logf: t.Logf})
}

// startNode builds a node from cfg and starts its accept loop on loopback.
func startNode(t *testing.T, cfg Config) *Node {
	t.Helper()
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// testLeaf is a leaf-shaped node with its one uplink in reach, so tests
// can drive and inspect the link directly.
type testLeaf struct {
	*Node
	*uplink
}

// Connected reports whether the leaf's session is established.
func (l testLeaf) Connected() bool { return l.conn != nil }

// newLeaf builds a leaf-shaped node from cfg: fleet with one static
// uplink to addr and no listener.
func newLeaf(t *testing.T, cfg Config, fleet *core.Fleet, addr string) testLeaf {
	t.Helper()
	cfg.State, cfg.Fleet, cfg.Peers, cfg.StaticOnly = fleet.State(), fleet, []string{addr}, true
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return testLeaf{n, n.uplinks[addr]}
}

// driveSynced is the suite's window/sync alternation (what the public
// session driver, peachstar.Campaign.Start, does for an attached campaign):
// drive the fleet to budget total executions, running one remote window
// every `every` executions. Window failures are tolerated — the next
// window retries — and the final flush's error is returned.
func driveSynced(fleet *core.Fleet, exchange func() error, budget, every int) error {
	for fleet.Execs() < budget {
		fleet.Drive(nil, core.Budget{Execs: min(fleet.Execs()+every, budget)}, nil)
		exchange()
	}
	return exchange()
}

func newTestLeaf(t *testing.T, fleet *core.Fleet, tgt targets.Target, addr, id string) testLeaf {
	t.Helper()
	return newLeaf(t, Config{Target: "libmodbus", Models: tgt.Models(), NodeID: id, Logf: t.Logf}, fleet, addr)
}

// TestLoopbackRealTargetSettles runs the hub + two leaves over the real
// libmodbus target and checks the settlement invariant the protocol does
// guarantee on a big target: after a final sync round, hub and both leaves
// agree on one union edge count, and it is no smaller than what either
// leaf found alone. (Exact equality with a single-process run is asserted
// on the saturable conformance target — see convergence_test.go.)
func TestLoopbackRealTargetSettles(t *testing.T) {
	const budget = 40000
	state := core.NewSyncState(0)
	fleetA, tgtA := newLeafFleet(t, 99, 0)
	fleetB, tgtB := newLeafFleet(t, 99, 1)
	hub := startHub(t, state, tgtA.Models())
	leafA := newTestLeaf(t, fleetA, tgtA, hub.Addr(), "leaf-a")
	leafB := newTestLeaf(t, fleetB, tgtB, hub.Addr(), "leaf-b")

	var wg sync.WaitGroup
	for _, l := range []testLeaf{leafA, leafB} {
		wg.Add(1)
		go func(l testLeaf) {
			defer wg.Done()
			if err := driveSynced(l.cfg.Fleet, l.Sync, budget/2, 1024); err != nil {
				t.Errorf("%v", err)
			}
		}(l)
	}
	wg.Wait()
	for _, l := range []testLeaf{leafA, leafB} {
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}

	hubEdges := state.Edges()
	sa, sb := fleetA.Stats(), fleetB.Stats()
	if sa.Edges != hubEdges || sb.Edges != hubEdges {
		t.Fatalf("fleet did not settle: hub %d, leaf-a %d, leaf-b %d edges", hubEdges, sa.Edges, sb.Edges)
	}
	execs, _, connected := hub.RemoteStats()
	if execs < budget {
		t.Fatalf("hub heard of %d remote execs, want >= %d", execs, budget)
	}
	if connected != 2 {
		t.Fatalf("hub reports %d connected leaves, want 2", connected)
	}
	if _, edges, nodes, ok := leafA.FleetStats(); !ok || edges != hubEdges || nodes != 2 {
		t.Fatalf("leaf fleet stats = (%d edges, %d leaves, ok=%v), want (%d, 2, true)", edges, nodes, ok, hubEdges)
	}
}

// TestLeafReconnectResumes drops the client side of the session mid-
// campaign and checks the next sync redials, resumes the journal cursor,
// and loses nothing.
func TestLeafReconnectResumes(t *testing.T) {
	state := core.NewSyncState(0)
	fleet, tgt := newLeafFleet(t, 7, 0)
	hub := startHub(t, state, tgt.Models())
	leaf := newTestLeaf(t, fleet, tgt, hub.Addr(), "leaf-r")

	fleet.Run(4000)
	if err := leaf.Sync(); err != nil {
		t.Fatal(err)
	}
	if !leaf.Connected() {
		t.Fatal("leaf should be connected after a successful sync")
	}
	edgesBefore := state.Edges()
	cursorBefore := leaf.session.remoteCursor

	leaf.Close() // simulated connection loss
	fleet.Run(fleet.Execs() + 4000)
	if err := leaf.Sync(); err != nil {
		t.Fatalf("sync after reconnect: %v", err)
	}
	if leaf.session.remoteCursor < cursorBefore {
		t.Fatalf("hub cursor went backwards across reconnect: %d -> %d", cursorBefore, leaf.session.remoteCursor)
	}
	if state.Edges() < edgesBefore {
		t.Fatalf("hub edges shrank across reconnect: %d -> %d", edgesBefore, state.Edges())
	}
	if got, want := state.Edges(), fleet.Stats().Edges; got != want {
		t.Fatalf("hub edges = %d, leaf edges = %d after resync", got, want)
	}
}

// TestHubRestartOnSameState restarts the hub process-equivalent (same
// shared state, same address) and checks a leaf session survives via
// reconnect: the leaf's resume cursor outruns the new hub's fresh
// connection state, which must degrade to a full replay, not an error.
func TestHubRestartOnSameState(t *testing.T) {
	state := core.NewSyncState(0)
	fleet, tgt := newLeafFleet(t, 11, 0)
	hub := startHub(t, state, tgt.Models())
	addr := hub.Addr()
	leaf := newTestLeaf(t, fleet, tgt, addr, "leaf-h")

	fleet.Run(4000)
	if err := leaf.Sync(); err != nil {
		t.Fatal(err)
	}
	hub.Close()

	hub2, err := NewNode(Config{State: state, Target: "libmodbus", Models: tgt.Models(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := hub2.ListenAndServe(addr); err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer hub2.Close()

	fleet.Run(fleet.Execs() + 4000)
	// First sync after the hub vanished fails (dead connection detected);
	// the one after reconnects against the restarted hub.
	var synced bool
	for attempt := 0; attempt < 3 && !synced; attempt++ {
		synced = leaf.Sync() == nil
	}
	if !synced {
		t.Fatal("leaf failed to resync with the restarted hub")
	}
	if got, want := state.Edges(), fleet.Stats().Edges; got != want {
		t.Fatalf("restarted hub edges = %d, leaf edges = %d", got, want)
	}
}

// TestHandshakeRejectsMismatchedCampaigns: a leaf fuzzing another target,
// or the same target with different data models, must be refused with a
// reason, not silently merged.
func TestHandshakeRejectsMismatchedCampaigns(t *testing.T) {
	state := core.NewSyncState(0)
	fleet, tgt := newLeafFleet(t, 1, 0)
	hub := startHub(t, state, tgt.Models())

	wrongTarget := newLeaf(t, Config{Target: "IEC104", Models: tgt.Models()}, fleet, hub.Addr())
	if err := wrongTarget.Sync(); err == nil {
		t.Fatal("hub accepted a leaf fuzzing a different target")
	}

	altModels := []*datamodel.Model{{Name: "bogus", Fields: []*datamodel.Chunk{datamodel.Num("x", 1, 0)}}}
	wrongModels := newLeaf(t, Config{Target: "libmodbus", Models: altModels}, fleet, hub.Addr())
	if err := wrongModels.Sync(); err == nil {
		t.Fatal("hub accepted a leaf with mismatched data models")
	}
}

// TestVersionNegotiationRule pins the one-version rule: refuse below ours,
// cap at ours.
func TestVersionNegotiationRule(t *testing.T) {
	if _, err := negotiate(ProtocolVersion - 1); err == nil {
		t.Fatal("the previous protocol version must be refused")
	}
	if v, err := negotiate(ProtocolVersion); err != nil || v != ProtocolVersion {
		t.Fatalf("negotiate(current) = %d, %v", v, err)
	}
	// A future leaf advertising a higher version is served at ours.
	if v, err := negotiate(ProtocolVersion + 7); err != nil || v != ProtocolVersion {
		t.Fatalf("negotiate(future) = %d, %v", v, err)
	}
}

// TestCrashRecordsPropagateAcrossFleet: a fault known to one leaf must
// reach the hub bank and the other leaf, deduplicated, surviving resends.
func TestCrashRecordsPropagateAcrossFleet(t *testing.T) {
	state := core.NewSyncState(0)
	fleetA, tgtA := newLeafFleet(t, 3, 0)
	fleetB, tgtB := newLeafFleet(t, 3, 1)
	hub := startHub(t, state, tgtA.Models())
	leafA := newTestLeaf(t, fleetA, tgtA, hub.Addr(), "leaf-a")
	leafB := newTestLeaf(t, fleetB, tgtB, hub.Addr(), "leaf-b")

	// Plant a fault in leaf A's shared state, as a worker sync would.
	rec := &crash.Record{Kind: mem.SEGV, Site: "modbus.test.site", Example: []byte{1, 2}, Count: 3, FirstExec: 17, PathSig: 99}
	fleetA.State().Exchange(core.ExchangeFunc(func(_ *coverage.Virgin, _ *corpus.Corpus, b *crash.Bank) error {
		b.Absorb(rec)
		return nil
	}))

	fleetA.Run(512)
	fleetB.Run(512)
	if err := leafA.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := leafB.Sync(); err != nil {
		t.Fatal(err)
	}
	found := func(recs []*crash.Record) bool {
		for _, r := range recs {
			if r.Site == "modbus.test.site" && r.Count == 3 && r.FirstExec == 17 {
				return true
			}
		}
		return false
	}
	if !found(state.CrashRecords()) {
		t.Fatal("hub bank missing the leaf's fault")
	}
	if !found(fleetB.State().CrashRecords()) {
		t.Fatal("second leaf missing the relayed fault")
	}
	// Resend round (reconnect simulation): nothing may double.
	leafA.Close()
	if err := leafA.Sync(); err != nil {
		t.Fatal(err)
	}
	planted := 0
	for _, r := range state.CrashRecords() {
		if r.Site == "modbus.test.site" {
			planted++
			if r.Count != 3 {
				t.Fatalf("fault count inflated to %d after resend", r.Count)
			}
		}
	}
	// Exactly one instance of the planted fault; the short libmodbus runs
	// may legitimately contribute further records of their own.
	if planted != 1 {
		t.Fatalf("hub bank has %d copies of the planted fault, want 1", planted)
	}
}

// TestHubCompactsSharedJournal: with every leaf's cursor advanced, the hub
// journal must not retain consumed prefixes.
func TestHubCompactsSharedJournal(t *testing.T) {
	state := core.NewSyncState(0)
	fleet, tgt := newLeafFleet(t, 5, 0)
	hub := startHub(t, state, tgt.Models())
	leaf := newTestLeaf(t, fleet, tgt, hub.Addr(), "leaf-c")

	fleet.Run(6000)
	if err := leaf.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := leaf.Sync(); err != nil { // second window advances past round one's tail
		t.Fatal(err)
	}
	var base, length int
	state.Exchange(core.ExchangeFunc(func(_ *coverage.Virgin, corp *corpus.Corpus, _ *crash.Bank) error {
		base, length = corp.JournalBase(), corp.JournalLen()
		return nil
	}))
	if base == 0 && length > 0 {
		t.Fatalf("hub journal never compacted: base %d, len %d", base, length)
	}
}

// TestHubRestartWithLostState is the README's hardest failure promise: a
// hub that restarts with a FRESH SyncState (everything lost) must serve a
// reconnecting leaf whose saved cursor now points past the end of the new
// hub's empty journal — degrading to a full replay, never crashing — and
// the fleet must re-converge.
func TestHubRestartWithLostState(t *testing.T) {
	fleet, tgt := newLeafFleet(t, 13, 0)
	hub := startHub(t, core.NewSyncState(0), tgt.Models())
	addr := hub.Addr()
	leaf := newTestLeaf(t, fleet, tgt, addr, "leaf-lost")

	fleet.Run(6000)
	if err := leaf.Sync(); err != nil {
		t.Fatal(err)
	}
	if leaf.session.remoteCursor == 0 {
		t.Skip("campaign pushed no puzzles; cursor overrun not exercised")
	}
	hub.Close()

	// Restart with lost state: fresh SyncState, empty journal.
	freshState := core.NewSyncState(0)
	hub2, err := NewNode(Config{State: freshState, Target: "libmodbus", Models: tgt.Models(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := hub2.ListenAndServe(addr); err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer hub2.Close()

	fleet.Run(fleet.Execs() + 2000)
	var synced bool
	for attempt := 0; attempt < 3 && !synced; attempt++ {
		synced = leaf.Sync() == nil
	}
	if !synced {
		t.Fatal("leaf failed to resync with the state-lost hub")
	}
	// One more window: the leaf's stale cursor has been re-issued by the
	// new hub, and the fresh hub must have received the full replay.
	if err := leaf.Sync(); err != nil {
		t.Fatal(err)
	}
	if got, want := freshState.Edges(), fleet.Stats().Edges; got != want {
		t.Fatalf("state-lost hub re-converged to %d edges, leaf has %d", got, want)
	}
}

// TestClosedLeafDoesNotPinCompaction: after Close, a detached uplink must
// not block the fleet's shared-journal compaction while the campaign keeps
// fuzzing; a revived leaf re-registers and still converges.
func TestClosedLeafDoesNotPinCompaction(t *testing.T) {
	state := core.NewSyncState(0)
	fleet, tgt := newLeafFleet(t, 17, 0)
	hub := startHub(t, state, tgt.Models())
	leaf := newTestLeaf(t, fleet, tgt, hub.Addr(), "leaf-pin")

	fleet.Run(3000)
	if err := leaf.Sync(); err != nil {
		t.Fatal(err)
	}
	leaf.Close()

	// Keep fuzzing detached; worker syncs keep feeding the shared journal.
	fleet.Run(fleet.Execs() + 5000)
	fleet.SyncAll()
	var base, length int
	fleet.State().Exchange(core.ExchangeFunc(func(_ *coverage.Virgin, corp *corpus.Corpus, _ *crash.Bank) error {
		base, length = corp.JournalBase(), corp.JournalLen()
		return nil
	}))
	if base == 0 && length > 0 {
		t.Fatalf("closed uplink pinned the journal: base %d, len %d", base, length)
	}

	// Revival: the leaf re-registers (full replay if compacted past) and
	// the hub still converges to the fleet's state.
	if err := leaf.Sync(); err != nil {
		t.Fatal(err)
	}
	if got, want := state.Edges(), fleet.Stats().Edges; got != want {
		t.Fatalf("revived leaf: hub at %d edges, fleet at %d", got, want)
	}
}
