package fleetnet

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/datamodel"
	"repro/internal/mem"
	"repro/internal/sandbox"
)

// convTarget is the conformance target for the distributed-vs-local
// equivalence test. It mirrors the shape of the ICS targets (opcode gate,
// size relation, checksum, shared payload rules rewarding cross-opcode
// donation) but its edge space is small enough that any topology fully
// saturates it within a few thousand executions. That matters: final edge
// counts of two *differently interleaved* campaigns are only comparable
// when both have exhausted the reachable edge set — on the big targets
// rare donor-chain edges make the final count interleaving-sensitive, so
// exact cross-topology equality is only well-defined at saturation.
type convTarget struct {
	ids []coverage.BlockID
}

func newConvTarget() *convTarget {
	return &convTarget{ids: coverage.Blocks("fleetnet-conv", 32)}
}

func (ct *convTarget) Handle(tr *coverage.Tracer, pkt []byte) {
	tr.Hit(ct.ids[0])
	if len(pkt) < 3 {
		tr.Hit(ct.ids[1])
		return
	}
	op, ln := pkt[0], int(pkt[1])
	if 2+ln+1 != len(pkt) {
		tr.Hit(ct.ids[2])
		return
	}
	var sum byte
	for _, b := range pkt[:len(pkt)-1] {
		sum += b
	}
	if sum != pkt[len(pkt)-1] {
		tr.Hit(ct.ids[3])
		return
	}
	payload := pkt[2 : 2+ln]
	for _, b := range payload {
		if b&1 == 0 {
			tr.Hit(ct.ids[4])
		} else {
			tr.Hit(ct.ids[5])
		}
	}
	if op < 1 || op > 3 {
		tr.Hit(ct.ids[6])
		return
	}
	base := int(op-1) * 6
	tr.Hit(ct.ids[7+base])
	if len(payload) >= 1 && payload[0] == 0xAB {
		tr.Hit(ct.ids[8+base])
		if len(payload) >= 8 {
			tr.Hit(ct.ids[9+base])
			if op == 2 {
				panic(&mem.Fault{Kind: mem.SEGV, Site: "conv.op2"})
			}
			if payload[7] == op {
				tr.Hit(ct.ids[10+base])
			}
		}
	}
}

func convModels() []*datamodel.Model {
	mk := func(op uint64) *datamodel.Model {
		return datamodel.NewModel(
			map[uint64]string{1: "op1", 2: "op2", 3: "op3"}[op],
			datamodel.Num("op", 1, op).AsToken(),
			datamodel.Num("len", 1, 0).WithRel(datamodel.SizeOf, "payload", 0),
			datamodel.BytesVar("payload", 0, 16, []byte{0, 0}),
			datamodel.Num("sum", 1, 0).WithFix(datamodel.Sum8, "op", "len", "payload"),
		)
	}
	return []*datamodel.Model{mk(1), mk(2), mk(3)}
}

func newConvFleet(t *testing.T, seed uint64, workers, stream int) *core.Fleet {
	t.Helper()
	f, err := core.NewFleet(core.Config{
		Models:   convModels(),
		Target:   newConvTarget(),
		Strategy: core.StrategyPeachStar,
		Seed:     seed,
	}, core.ParallelConfig{
		Workers:    workers,
		SeedStream: stream,
		NewTarget:  func() sandbox.Target { return newConvTarget() },
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestLoopbackTwoNodeConvergesToRunParallel is the acceptance integration
// test for the network transport: a hub plus two leaves on loopback, each
// leaf spending half the budget on the RNG stream the corresponding local
// worker would use, must reach the same final edge count — and the same
// unique-crash count — as a single-process 2-worker RunParallel campaign
// of equal total budget and the same campaign seed. The leaves run
// concurrently, so the test also exercises the hub's locking under -race.
func TestLoopbackTwoNodeConvergesToRunParallel(t *testing.T) {
	const (
		seed   = 42
		budget = 30000 // total; the conformance target saturates far earlier
	)

	local := newConvFleet(t, seed, 2, 0)
	local.Run(budget)
	want := local.Stats()
	if want.Edges == 0 {
		t.Fatal("control campaign found no coverage")
	}

	state := core.NewSyncState(0)
	hub := startNode(t, Config{State: state, Target: "conv", Models: convModels(), Logf: t.Logf})

	fleets := []*core.Fleet{newConvFleet(t, seed, 1, 0), newConvFleet(t, seed, 1, 1)}
	leaves := make([]testLeaf, len(fleets))
	for i, f := range fleets {
		leaves[i] = newLeaf(t, Config{Target: "conv", Models: convModels(), NodeID: []string{"leaf-a", "leaf-b"}[i], Logf: t.Logf}, f, hub.Addr())
	}

	var wg sync.WaitGroup
	for _, l := range leaves {
		wg.Add(1)
		go func(l testLeaf) {
			defer wg.Done()
			if err := driveSynced(l.cfg.Fleet, l.Sync, budget/2, 512); err != nil {
				t.Errorf("%v", err)
			}
		}(l)
	}
	wg.Wait()
	// Final settlement: each leaf's last push may postdate the other's
	// last pull, so one more round each propagates the union everywhere.
	for _, l := range leaves {
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}

	if got := fleets[0].Execs() + fleets[1].Execs(); got < budget {
		t.Fatalf("distributed campaign spent %d execs, want >= %d", got, budget)
	}
	if got := state.Edges(); got != want.Edges {
		t.Fatalf("hub union edges = %d, single-process RunParallel edges = %d", got, want.Edges)
	}
	for i, f := range fleets {
		s := f.Stats()
		if s.Edges != want.Edges {
			t.Fatalf("leaf %d edges = %d, single-process RunParallel edges = %d", i, s.Edges, want.Edges)
		}
		if s.UniqueCrashes != want.UniqueCrashes {
			t.Fatalf("leaf %d unique crashes = %d, single-process = %d", i, s.UniqueCrashes, want.UniqueCrashes)
		}
	}
	// The exchanged corpora must agree on the rule signatures learned.
	sigsA, sigsB := fleets[0].Corpus().Signatures(), fleets[1].Corpus().Signatures()
	if len(sigsA) != len(sigsB) {
		t.Fatalf("leaf corpora diverged: %d vs %d signatures", len(sigsA), len(sigsB))
	}
	for i := range sigsA {
		if sigsA[i] != sigsB[i] {
			t.Fatalf("leaf corpora diverged at signature %d: %q vs %q", i, sigsA[i], sigsB[i])
		}
	}
}

// TestSingleLeafTransportLossless pins the transport's behavioral
// neutrality: one leaf syncing with a hub that has no other input must be
// bit-for-bit identical to the same fleet driven without any networking —
// pushing your own state and pulling it back is a no-op. This is the
// distributed extension of the workers=1 ≡ serial guarantee.
func TestSingleLeafTransportLossless(t *testing.T) {
	const (
		budget = 30000
		window = 256
	)
	control, _ := newLeafFleet(t, 99, 0)
	for control.Execs() < budget {
		next := control.Execs() + window
		if next > budget {
			next = budget
		}
		control.Run(next)
		// A leaf's Sync flushes twice per window (before and after the wire
		// exchange); mirror it exactly.
		control.SyncAll()
		control.SyncAll()
	}
	control.SyncAll()
	control.SyncAll()

	state := core.NewSyncState(0)
	fleet, tgt := newLeafFleet(t, 99, 0)
	hub := startHub(t, state, tgt.Models())
	leaf := newTestLeaf(t, fleet, tgt, hub.Addr(), "leaf-lossless")
	if err := driveSynced(fleet, leaf.Sync, budget, window); err != nil {
		t.Fatal(err)
	}

	cs, ls := control.Stats(), fleet.Stats()
	if !reflect.DeepEqual(cs, ls) {
		t.Fatalf("networked single leaf diverged:\ncontrol %+v\nleaf    %+v", cs, ls)
	}
}
