package core

import (
	"strings"
	"testing"

	"repro/internal/coverage"
	"repro/internal/datamodel"
	"repro/internal/mem"
)

// toyTarget is a small instrumented protocol: packets are
//
//	op(1) | len(1, sizeof payload) | payload | sum8(1 over op,len,payload)
//
// The three opcodes gate their deep paths on the *same* payload prefix
// conditions (the shared construction rules of Fig. 2): payload[0] == 0xAB,
// then payload[1] in the 0xC0 row. Each opcode rewards the prefix with
// distinct blocks, so a prefix discovered under one opcode is a new path
// under every other — exactly the cross-opcode transfer packet cracking
// exploits. Opcode 2 crashes at the second gate.
type toyTarget struct {
	ids []coverage.BlockID
}

func newToyTarget() *toyTarget {
	return &toyTarget{ids: coverage.Blocks("toy", 32)}
}

func (tt *toyTarget) Handle(tr *coverage.Tracer, pkt []byte) {
	tr.Hit(tt.ids[0])
	if len(pkt) < 3 {
		tr.Hit(tt.ids[1])
		return
	}
	op, ln := pkt[0], int(pkt[1])
	if 2+ln+1 != len(pkt) {
		tr.Hit(tt.ids[2])
		return
	}
	var sum byte
	for _, b := range pkt[:len(pkt)-1] {
		sum += b
	}
	if sum != pkt[len(pkt)-1] {
		tr.Hit(tt.ids[3])
		return
	}
	payload := pkt[2 : 2+ln]
	// Shared payload scan (the similar parsing code of Fig. 2).
	for _, b := range payload {
		if b&1 == 0 {
			tr.Hit(tt.ids[4])
		} else {
			tr.Hit(tt.ids[5])
		}
	}
	if op < 1 || op > 3 {
		tr.Hit(tt.ids[6])
		return
	}
	base := int(op-1) * 6
	tr.Hit(tt.ids[7+base])
	if len(payload) >= 1 && payload[0] == 0xAB {
		tr.Hit(tt.ids[8+base])
		if len(payload) >= 8 {
			tr.Hit(tt.ids[9+base])
			if op == 2 {
				panic(&mem.Fault{Kind: mem.SEGV, Site: "toy.op2"})
			}
			if payload[7] == op {
				tr.Hit(tt.ids[10+base])
			}
		}
	}
}

func toyModels() []*datamodel.Model {
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

func newEngine(t *testing.T, strat Strategy, seed uint64) *Engine {
	t.Helper()
	e, err := New(Config{
		Models:   toyModels(),
		Target:   newToyTarget(),
		Strategy: strat,
		Seed:     seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewValidatesConfig(t *testing.T) {
	if _, err := New(Config{Target: newToyTarget()}); err == nil {
		t.Fatal("missing models should error")
	}
	if _, err := New(Config{Models: toyModels()}); err == nil {
		t.Fatal("missing target should error")
	}
}

// TestNewRejectsDuplicateModelNames: the valuable queues are indexed like
// Config.Models and checkpointed by model name, so two models named alike
// would share one name in the checkpoint and restore ambiguously.
func TestNewRejectsDuplicateModelNames(t *testing.T) {
	ms := append(toyModels(), toyModels()[1])
	if _, err := New(Config{Models: ms, Target: newToyTarget()}); err == nil || !strings.Contains(err.Error(), `"op2"`) {
		t.Fatalf("New with two models named op2: err = %v, want a duplicate-name error", err)
	}
}

func TestStepCountsExecs(t *testing.T) {
	e := newEngine(t, StrategyPeach, 1)
	n := e.Step()
	if n != 1 {
		t.Fatalf("baseline step execs = %d, want 1", n)
	}
	s := e.Stats()
	if s.Iterations != 1 || s.Execs != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestRunReachesBudget(t *testing.T) {
	e := newEngine(t, StrategyPeachStar, 2)
	e.Run(500)
	if e.Stats().Execs < 500 {
		t.Fatalf("execs = %d", e.Stats().Execs)
	}
}

func TestPathsGrow(t *testing.T) {
	e := newEngine(t, StrategyPeach, 3)
	e.Run(300)
	if e.Stats().Paths == 0 {
		t.Fatal("baseline found no paths at all")
	}
	if e.Stats().Edges == 0 {
		t.Fatal("no edges recorded")
	}
}

func TestPeachStarBuildsCorpus(t *testing.T) {
	e := newEngine(t, StrategyPeachStar, 4)
	e.Run(400)
	if e.Corpus().Empty() {
		t.Fatal("peach* should have cracked valuable seeds into puzzles")
	}
}

func TestBaselineNeverBuildsCorpus(t *testing.T) {
	e := newEngine(t, StrategyPeach, 5)
	e.Run(400)
	if !e.Corpus().Empty() {
		t.Fatal("baseline must not crack seeds")
	}
}

func TestDisableCrackerKeepsCorpusEmpty(t *testing.T) {
	e, err := New(Config{
		Models: toyModels(), Target: newToyTarget(),
		Strategy: StrategyPeachStar, Seed: 6, DisableCracker: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(400)
	if !e.Corpus().Empty() {
		t.Fatal("ablated cracker must keep corpus empty")
	}
}

func TestDeterminismUnderSeed(t *testing.T) {
	a := newEngine(t, StrategyPeachStar, 7)
	b := newEngine(t, StrategyPeachStar, 7)
	a.Run(300)
	b.Run(300)
	sa, sb := a.Stats(), b.Stats()
	if sa.Paths != sb.Paths || sa.Execs != sb.Execs || sa.UniqueCrashes != sb.UniqueCrashes {
		t.Fatalf("campaigns diverged: %+v vs %+v", sa, sb)
	}
}

func TestPeachStarFindsDeepCrash(t *testing.T) {
	// The op2 crash needs payload[0:2] == AB CD behind a valid checksum
	// and length. Peach* should find it within a modest budget on most
	// seeds; assert over a few seeds to avoid flakiness while keeping
	// the bar meaningful.
	found := false
	for seed := uint64(0); seed < 3 && !found; seed++ {
		e := newEngine(t, StrategyPeachStar, seed)
		e.Run(6000)
		if e.Stats().UniqueCrashes > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("peach* did not find the seeded crash in 3x6000 execs")
	}
}

func TestPeachStarCoverageNoCollapse(t *testing.T) {
	// The toy target's path count is dominated by raw payload diversity
	// (the parity-scan buckets), which donation does not add to — the
	// coverage *advantage* of Peach* is asserted on the six real targets
	// in internal/bench. Here the invariant is weaker: spending part of
	// the budget on semantic batches must not collapse exploration.
	var base, star int
	for seed := uint64(0); seed < 5; seed++ {
		eb := newEngine(t, StrategyPeach, seed)
		eb.Run(1500)
		es := newEngine(t, StrategyPeachStar, seed)
		es.Run(1500)
		base += eb.Stats().Paths
		star += es.Stats().Paths
	}
	if float64(star) < 0.8*float64(base) {
		t.Fatalf("peach* paths %d collapsed versus peach paths %d", star, base)
	}
}

func TestStrategyString(t *testing.T) {
	if StrategyPeach.String() != "Peach" || StrategyPeachStar.String() != "Peach*" {
		t.Fatal("strategy names wrong")
	}
	if Strategy(9).String() == "" {
		t.Fatal("unknown strategy should format")
	}
}

func TestSemanticGenerateRespectsMaxBatch(t *testing.T) {
	e, err := New(Config{
		Models: toyModels(), Target: newToyTarget(),
		Strategy: StrategyPeachStar, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.maxBatch = 5
	// Prime the corpus.
	e.Run(300)
	if e.Corpus().Empty() {
		t.Skip("corpus did not populate under this seed")
	}
	e.pending = e.pending[:0]
	e.semanticGenerate(0)
	if len(e.pending) > 5 {
		t.Fatalf("batch = %d, want <= 5", len(e.pending))
	}
}

func TestCollectPuzzlesDFSOrder(t *testing.T) {
	// Algorithm 2: the puzzle of an interior node is the ordered
	// concatenation of its children's puzzles, and parents come after
	// their children — the root's puzzle, the whole packet, comes last.
	m := toyModels()[0]
	inst := m.Generate()
	e := newEngine(t, StrategyPeachStar, 9)
	if !e.crk.Crack(m, inst.Bytes()) {
		t.Fatal(e.crk.Err())
	}
	e.addPuzzles(m.Name, nil)
	if _, got := e.crk.Puzzle(e.crk.Puzzles() - 1); string(got) != string(inst.Bytes()) {
		t.Fatal("root puzzle must equal the full packet bytes")
	}
	// Payload leaf puzzle must be present in the corpus.
	donors := e.corp.Donors(inst.Find("payload").Chunk)
	if len(donors) == 0 {
		t.Fatal("payload puzzle not collected")
	}
}

// rootSignature is the structural signature the cracker gives a packet's
// whole instance — the last puzzle it logs.
func rootSignature(t *testing.T, m *datamodel.Model) string {
	t.Helper()
	var p datamodel.Cracker
	if !p.Crack(m, m.Generate().Bytes()) {
		t.Fatal(p.Err())
	}
	sig, _ := p.Puzzle(p.Puzzles() - 1)
	return string(sig)
}

func TestNodeSignatureComposition(t *testing.T) {
	sig := rootSignature(t, toyModels()[0])
	if sig == "" || sig[:4] != "blk(" {
		t.Fatalf("signature = %q", sig)
	}
	if rootSignature(t, toyModels()[1]) == sig {
		t.Fatal("different token values must split block signatures")
	}
}
