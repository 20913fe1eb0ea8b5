package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/coverage"
	"repro/internal/datamodel"
	"repro/internal/executor"
	"repro/internal/mem"
	"repro/internal/rng"
	"repro/internal/session"
)

// toySessionTarget is a minimal stateful protocol for the session loop:
//
//	Start (0x5A)  activates the session
//	Data  (0x44)  is counted while activated
//	Boom  (0x66)  crashes after two counted Data messages
//
// The fault is reachable only through a 4-message prefix on one session:
// the engine's in-process session reset (BeginSession -> ResetSession)
// clears the gate at every sequence boundary.
type toySessionTarget struct {
	ids      []coverage.BlockID
	started  bool
	accepted int
}

func newToySessionTarget() *toySessionTarget {
	return &toySessionTarget{ids: coverage.Blocks("toysess", 16)}
}

func (tt *toySessionTarget) ResetSession() { tt.started = false; tt.accepted = 0 }

func (tt *toySessionTarget) Handle(tr *coverage.Tracer, pkt []byte) {
	tr.Hit(tt.ids[0])
	if len(pkt) < 1 {
		tr.Hit(tt.ids[1])
		return
	}
	switch pkt[0] {
	case 0x5A:
		tr.Hit(tt.ids[2])
		tt.started = true
		tt.accepted = 0
	case 0x44:
		if !tt.started {
			tr.Hit(tt.ids[3])
			return
		}
		tr.Hit(tt.ids[4])
		if len(pkt) >= 2 && pkt[1]&1 == 1 {
			tr.Hit(tt.ids[5])
		}
		tt.accepted++
	case 0x66:
		if tt.started && tt.accepted >= 2 {
			panic(&mem.Fault{Kind: mem.SEGV, Site: "toysess.deep"})
		}
		tr.Hit(tt.ids[6])
	default:
		tr.Hit(tt.ids[7])
	}
}

func toySessionModels() []*datamodel.Model {
	return []*datamodel.Model{
		datamodel.NewModel("Start", datamodel.Num("op", 1, 0x5A).AsToken()),
		datamodel.NewModel("Data",
			datamodel.Num("op", 1, 0x44).AsToken(),
			datamodel.BytesVar("payload", 1, 8, []byte{0x01}),
		),
		datamodel.NewModel("Boom", datamodel.Num("op", 1, 0x66).AsToken()),
	}
}

func toyStateModel() *session.StateModel {
	return &session.StateModel{
		Name:    "ToySession",
		Initial: 0,
		States: []session.State{
			{Name: "idle", Actions: []session.Action{
				{Model: "Start", Next: 1},
			}},
			{Name: "active", Actions: []session.Action{
				{Model: "Data", Next: 1},
				{Model: "Boom", Next: 1},
			}},
		},
	}
}

func newSessionEngine(t *testing.T, seed uint64, adaptive bool) *Engine {
	t.Helper()
	e, err := New(Config{
		Models:   toySessionModels(),
		Target:   newToySessionTarget(),
		Strategy: StrategyPeachStar,
		Seed:     seed,
		Session:  toyStateModel(),
		Adaptive: adaptive,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestSessionConfigValidation(t *testing.T) {
	bad := toyStateModel()
	bad.States[1].Actions[0].Model = "NoSuchModel"
	_, err := New(Config{
		Models:   toySessionModels(),
		Target:   newToySessionTarget(),
		Strategy: StrategyPeachStar,
		Seed:     1,
		Session:  bad,
	})
	if err == nil {
		t.Fatal("action naming an unknown data model should fail New")
	}
	_, err = New(Config{
		Models:   toySessionModels(),
		Target:   newToySessionTarget(),
		Strategy: StrategyPeachStar,
		Seed:     1,
		Session:  &session.StateModel{Name: "empty"},
	})
	if err == nil {
		t.Fatal("invalid state model should fail New")
	}
}

// TestSessionEngineFindsDeepFault: the session loop reaches the fault
// gated behind a 4-message stateful prefix, and the record carries the
// whole sequence with its session boundary.
func TestSessionEngineFindsDeepFault(t *testing.T) {
	e := newSessionEngine(t, 1, false)
	e.Run(20000)
	s := e.Stats()
	if s.UniqueCrashes == 0 {
		t.Fatal("session campaign did not reach the deep-state fault")
	}
	recs := e.Crashes().Records()
	found := false
	for _, r := range recs {
		if r.Site != "toysess.deep" {
			continue
		}
		found = true
		if len(r.Sequence) < 4 {
			t.Fatalf("deep fault reproducer has %d steps, want >= 4 (Start + 2 Data + Boom)", len(r.Sequence))
		}
		if len(r.SeqStarts) != 1 || r.SeqStarts[0] != 0 {
			t.Fatalf("SeqStarts = %v, want [0]", r.SeqStarts)
		}
	}
	if !found {
		t.Fatalf("no record for toysess.deep; records: %+v", recs)
	}
	if s.Sequences == 0 {
		t.Fatal("Stats.Sequences = 0")
	}
	if s.StatesReached != 2 {
		t.Fatalf("StatesReached = %d, want 2", s.StatesReached)
	}
	var sent uint64
	for _, sc := range s.StateCoverage {
		sent += sc.Sent
	}
	if sent != uint64(s.Execs) {
		t.Fatalf("sum of StateCoverage.Sent = %d, want Execs = %d", sent, s.Execs)
	}
	if s.StateCoverage[1].Edges == 0 {
		t.Fatal("no edges attributed to the active state")
	}
	var opTrials uint64
	for _, op := range s.SeqOpStats {
		opTrials += op.Trials
	}
	if opTrials == 0 {
		t.Fatal("no sequence-operator trials recorded")
	}
}

// TestSessionDeterminism: equal seeds give equal session campaigns —
// stats, crash records, and retained corpus all match.
func TestSessionDeterminism(t *testing.T) {
	for _, adaptive := range []bool{false, true} {
		a := newSessionEngine(t, 7, adaptive)
		b := newSessionEngine(t, 7, adaptive)
		a.Run(5000)
		b.Run(5000)
		sa, sb := a.Stats(), b.Stats()
		if sa.Iterations != sb.Iterations || sa.Execs != sb.Execs || sa.Paths != sb.Paths ||
			sa.Edges != sb.Edges || sa.Sequences != sb.Sequences ||
			sa.UniqueCrashes != sb.UniqueCrashes || sa.CorpusPuzzles != sb.CorpusPuzzles {
			t.Fatalf("adaptive=%v: diverged:\n%+v\n%+v", adaptive, sa, sb)
		}
		ra, rb := a.Crashes().Records(), b.Crashes().Records()
		if len(ra) != len(rb) {
			t.Fatalf("adaptive=%v: crash records diverged: %d vs %d", adaptive, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i].Site != rb[i].Site || ra[i].FirstExec != rb[i].FirstExec {
				t.Fatalf("adaptive=%v: record %d diverged", adaptive, i)
			}
		}
	}
}

// TestSessionSequencesEnterCorpus: retained valuable sequences are
// published to the corpus under the reserved namespace, decode cleanly,
// and are legal walks — the material fleet sync ships to peers.
func TestSessionSequencesEnterCorpus(t *testing.T) {
	e := newSessionEngine(t, 3, false)
	e.Run(5000)
	sm := toyStateModel()
	pool := e.Corpus().Puzzles(corpus.SeqSignature(sm.Name))
	if len(pool) == 0 {
		t.Fatal("no sequences published to the corpus")
	}
	for _, p := range pool {
		seq, err := session.Decode(p.Data)
		if err != nil {
			t.Fatalf("corpus sequence does not decode: %v", err)
		}
		if err := legalWalk(sm, seq); err != nil {
			t.Fatalf("corpus sequence is not a legal walk: %v", err)
		}
		if p.Signature != corpus.SeqSignature(sm.Name) {
			t.Fatalf("sequence stored under non-reserved signature %q", p.Signature)
		}
	}
	// Donor lists never surface sequence entries (namespace isolation).
	for _, m := range toySessionModels() {
		for _, leaf := range m.GenerateInto(&datamodel.Arena{}).Leaves(nil) {
			for _, d := range e.Corpus().Donors(leaf.Chunk) {
				if strings.HasPrefix(d.Signature, corpus.SeqSignature("")) {
					t.Fatal("sequence entry leaked into donor list")
				}
			}
		}
	}
}

// TestSessionFleetStats: the fleet snapshot merges session counters
// element-wise across workers.
func TestSessionFleetStats(t *testing.T) {
	f, err := NewFleet(Config{
		Models:   toySessionModels(),
		Target:   newToySessionTarget(),
		Strategy: StrategyPeachStar,
		Seed:     11,
		Session:  toyStateModel(),
	}, ParallelConfig{
		Workers:   2,
		NewTarget: func() executor.Target { return newToySessionTarget() },
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Run(4000)
	s := f.Stats()
	if s.Sequences == 0 {
		t.Fatal("fleet Sequences = 0")
	}
	if s.StatesReached != 2 {
		t.Fatalf("fleet StatesReached = %d, want 2", s.StatesReached)
	}
	var sent uint64
	for _, sc := range s.StateCoverage {
		sent += sc.Sent
	}
	if sent != uint64(s.Execs) {
		t.Fatalf("fleet sum of Sent = %d, want Execs = %d", sent, s.Execs)
	}
	approx := f.StatsApprox()
	if approx.Sequences == 0 || approx.StatesReached == 0 {
		t.Fatalf("StatsApprox session counters empty: %+v", approx)
	}
}

// legalWalk reports whether s is a walk of sm from its initial state: every
// step's indices in range and sent from the state the walk is in.
func legalWalk(sm *session.StateModel, s session.Sequence) error {
	cur := sm.Initial
	for i, st := range s.Steps {
		if st.State != cur || st.State < 0 || st.State >= len(sm.States) {
			return fmt.Errorf("step %d sent from state %d, walk is in state %d", i, st.State, cur)
		}
		acts := sm.States[st.State].Actions
		if st.Action < 0 || st.Action >= len(acts) {
			return fmt.Errorf("step %d action %d out of range for state %d", i, st.Action, st.State)
		}
		cur = acts[st.Action].Next
	}
	return nil
}

// TestPickRetainedMatchesPerSequenceWeights: the per-state weight table
// draws the index the per-sequence formula 1 + maxSent/(1+sent[end])
// draws, and leaves the RNG in the same state.
func TestPickRetainedMatchesPerSequenceWeights(t *testing.T) {
	perSequence := func(s *sessionCore, r *rng.RNG) int {
		var maxSent uint64
		for _, n := range s.stateSent {
			maxSent = max(maxSent, n)
		}
		weight := func(rs *retainedSeq) uint64 { return 1 + maxSent/(1+s.stateSent[rs.endState]) }
		var total uint64
		for i := range s.seqs {
			total += weight(&s.seqs[i])
		}
		k := r.Uint64() % total
		for i := range s.seqs {
			if w := weight(&s.seqs[i]); k < w {
				return i
			} else {
				k -= w
			}
		}
		return len(s.seqs) - 1
	}
	gen := rng.New(4)
	for trial := 0; trial < 300; trial++ {
		ns := 1 + gen.Intn(6)
		s := &sessionCore{stateSent: make([]uint64, ns), stateW: make([]uint64, ns)}
		for i := range s.stateSent {
			s.stateSent[i] = gen.Uint64() >> uint(gen.Intn(64))
		}
		for n := 1 + gen.Intn(sessionRetained); n > 0; n-- {
			s.seqs = append(s.seqs, retainedSeq{endState: gen.Intn(ns)})
		}
		ra, rb := rng.New(uint64(trial)), rng.New(uint64(trial))
		if got, want := s.pickRetained(rb), perSequence(s, ra); got != want {
			t.Fatalf("trial %d: per-state weights drew %d, per-sequence formula %d", trial, got, want)
		}
		if ra.State() != rb.State() {
			t.Fatalf("trial %d: RNG state differs after the draw", trial)
		}
	}
}

// TestPooledMatchesDecode: a corpus sequence comes out of the decode cache
// as session.Decode + Repair make it, also after an eviction shifts the
// pool under the cache and for an entry that does not decode.
func TestPooledMatchesDecode(t *testing.T) {
	sm := toyStateModel()
	s, err := newSessionCore(sm, toySessionModels())
	if err != nil {
		t.Fatal(err)
	}
	c := corpus.New(3)
	check := func(label string) {
		t.Helper()
		pool := c.Puzzles(s.seqSig)
		for i := range pool {
			want, err := session.Decode(pool[i].Data)
			if err == nil {
				sm.Repair(&want)
			} else {
				want = session.Sequence{}
			}
			for pass := 0; pass < 2; pass++ { // a miss, then a hit
				if got := s.pooled(pool, i); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: entry %d pass %d: cached %+v, decoded %+v", label, i, pass, got, want)
				}
			}
		}
	}
	walk := func(n int) []byte {
		seq := session.Sequence{}
		for i := 0; i < n; i++ {
			seq.Steps = append(seq.Steps, session.Step{State: i % len(sm.States), Data: []byte{byte(n), byte(i)}})
		}
		return session.Encode(nil, seq)
	}
	c.AddSequence(sm.Name, walk(1))
	c.AddSequence(sm.Name, []byte{0xFF, 1, 2}) // unknown codec version
	check("fresh")
	c.AddSequence(sm.Name, walk(2))
	c.AddSequence(sm.Name, walk(3)) // evicts walk(1): every entry shifts
	check("after eviction")
	c.AddSequence(sm.Name, walk(4))
	check("after a second eviction")
}
