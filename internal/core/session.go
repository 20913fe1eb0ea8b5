package core

import (
	"fmt"

	"repro/internal/datamodel"
	"repro/internal/executor"
	"repro/internal/sandbox"
	"repro/internal/session"
)

// This file is the stateful-session fuzzing loop (Config.Session): instead
// of one packet per execution, an iteration walks the protocol state
// machine and drives a whole message *sequence* down one target session.
// Everything below is gated on Config.Session being non-nil; with it nil
// no session code runs, no session state is allocated, and the engine is
// bit-for-bit identical to the single-packet build — pinned by the golden
// suites.
//
// The loop composes the existing machinery rather than duplicating it:
// per-step payloads come from the same baselineGenerate/pickMutator path
// (so the adaptive scheduler keeps learning byte-level operators, now per
// step), valuable steps still feed the cracker and the donor corpus, and
// retained sequences ride the corpus journal — and with it fleetnet sync —
// through the reserved corpus.SeqSignature namespace. On top of that sit
// the sequence-granularity mutation operators of internal/session
// (splice/reorder/drop/truncate plus per-step payload regeneration),
// scheduled by the same floor+span yield weighting as the byte mutators,
// and per-state coverage accounting: every message is tagged with the
// state it was sent from, and edge discoveries attribute to that state.

// StateCoverage is one state's session-fuzzing accounting: how many
// messages were sent from it and how many coverage edges those messages
// discovered. The per-state breakdown is what tells a campaign operator
// which part of the protocol state machine the fuzzer actually reaches —
// the deep-state analogue of the Paths metric.
type StateCoverage struct {
	// State is the state's name in the StateModel.
	State string
	// Sent counts messages sent from this state.
	Sent uint64
	// Edges counts coverage edges first discovered by a message sent from
	// this state.
	Edges int
}

// StateInfo records the first time a campaign sent a message from a state
// — the session analogue of a new-coverage event (WindowInfo.NewStates).
type StateInfo struct {
	// State is the state's name in the StateModel.
	State string
	// Exec is the engine's execution count when the state was first
	// exercised.
	Exec int
}

const (
	// sessionRetained bounds the retained valuable-sequence queue, like
	// valuablePerModel bounds the per-model instance queues.
	sessionRetained = 32
	// seqOpPayload is the sequence-operator index of "regenerate one
	// step's payload" — the operator that reuses the whole byte-level
	// generation path on a single step of a retained sequence.
	seqOpPayload = session.NumOps
	// seqOpChoices is the sequence-operator count: the structural
	// operators of internal/session plus the payload operator.
	seqOpChoices = session.NumOps + 1
	// seqOpWarmup is the trial count below which the sequence-operator
	// draw stays uniform, mirroring the byte-mutator pilot phase.
	seqOpWarmup = 256
)

// seqOpName names a sequence operator for Stats.SeqOpStats.
func seqOpName(op int) string {
	if op == seqOpPayload {
		return "seq-payload"
	}
	return session.OpName(op)
}

// retainedSeq is one retained valuable sequence: a deep copy of the
// prefix that proved valuable, plus the state the walk ended in (the
// rarity key for base selection).
type retainedSeq struct {
	seq      session.Sequence
	endState int
}

// sessionCore is the engine's session-fuzzing state; nil unless
// Config.Session is set.
type sessionCore struct {
	sm *session.StateModel //peachstar:nosnap state-machine wiring from Config.Session
	// actModel maps (state, action) to the index of the action's data
	// model in Config.Models, resolved once at construction.
	//peachstar:nosnap construction wiring, re-resolved from Config
	actModel [][]int

	// Per-state accounting: messages sent from each state, edges
	// attributed to each state, and the first-reach log.
	stateSent  []uint64
	stateEdges []int
	reached    []bool
	reachedN   int //peachstar:nosnap derived from reached; recounted on restore
	// pendingStates queues first-reach events for the driver's window
	// hook, drained like the scheduler's pending distills.
	pendingStates []StateInfo
	// prevEdges is the union edge count the last attribution saw; re-read
	// at every sequence start so edges merged in from fleet peers between
	// iterations are never attributed to a local state.
	//peachstar:nosnap re-read at every sequence start
	prevEdges int

	// seqs is the retained valuable-sequence queue (deep copies; oldest
	// evicted at sessionRetained).
	seqs []retainedSeq

	// Sequence-operator accounting: lifetime trials and hits per operator,
	// driving the floor+span weighted draw once past warmup. opRound is
	// the operator applied this iteration (-1 for fresh walks), credited a
	// hit when any step of the iteration proves valuable.
	opTrials [seqOpChoices]uint64
	opHits   [seqOpChoices]uint64
	opRound  int //peachstar:nosnap per-iteration credit context; restore resets it

	// Per-iteration scratch: the working sequence, and per-step credit
	// context — which model each step's payload was generated for this
	// round (-1 = payload carried over from an earlier round) and which
	// mutators were applied, so the scheduler's per-execution credit
	// assignment sees exactly the round that produced the step it
	// observes.
	cur       session.Sequence //peachstar:nosnap per-iteration working sequence; restore resets it
	stepModel []int            //peachstar:nosnap per-iteration credit context
	stepMuts  [][]int          //peachstar:nosnap per-iteration credit context
	// encScratch reuses the encode buffer for corpus sequence entries.
	//peachstar:nosnap reusable encode buffer
	encScratch []byte
}

// newSessionCore validates the state model against the configured data
// models and builds the session state.
func newSessionCore(sm *session.StateModel, models []*datamodel.Model) (*sessionCore, error) {
	if err := sm.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	idx := make(map[string]int, len(models))
	for i, m := range models {
		idx[m.Name] = i
	}
	s := &sessionCore{
		sm:         sm,
		actModel:   make([][]int, len(sm.States)),
		stateSent:  make([]uint64, len(sm.States)),
		stateEdges: make([]int, len(sm.States)),
		reached:    make([]bool, len(sm.States)),
		opRound:    -1,
	}
	for si := range sm.States {
		st := &sm.States[si]
		s.actModel[si] = make([]int, len(st.Actions))
		for ai := range st.Actions {
			mi, ok := idx[st.Actions[ai].Model]
			if !ok {
				return nil, fmt.Errorf("core: state model %q: state %q action %d sends unknown data model %q",
					sm.Name, st.Name, ai, st.Actions[ai].Model)
			}
			s.actModel[si][ai] = mi
		}
	}
	return s, nil
}

// stepSession is one iteration of the session loop: generate a message
// sequence (a fresh state-machine walk, or a mutated retained sequence),
// then drive it down one target session, processing feedback per step.
func (e *Engine) stepSession() int {
	e.stats.Iterations++
	e.arena.Reset()
	e.generateSequence()
	return e.executeSequence()
}

// generateSequence fills the working sequence: once valuable sequences
// have been retained most iterations mutate one of them; the rest — and
// every iteration before the first retention — walk the state machine
// fresh.
func (e *Engine) generateSequence() {
	s := e.sess
	s.opRound = -1
	s.cur.Steps = s.cur.Steps[:0]
	if len(s.seqs) > 0 && !e.r.Chance(3) {
		e.mutateSequence()
		if len(s.cur.Steps) > 0 {
			return
		}
		// The operator emptied the sequence (Repair dropped every step);
		// fall through to a fresh walk so the iteration still executes.
	}
	e.freshWalk()
}

// freshWalk generates a legal walk from the initial state: at each state
// pick one available action uniformly, generate its payload, advance.
// Length is bounded by the model's walk cap with geometric early stopping,
// so short handshake prefixes and full-depth walks both occur.
func (e *Engine) freshWalk() {
	s := e.sess
	s.cur.Steps = s.cur.Steps[:0]
	s.stepModel = s.stepModel[:0]
	cur := s.sm.Initial
	walkCap := s.sm.WalkCap()
	for len(s.cur.Steps) < walkCap {
		acts := s.sm.States[cur].Actions
		if len(acts) == 0 {
			break // terminal state
		}
		ai := e.r.Intn(len(acts))
		i := len(s.cur.Steps)
		data := e.genStepPayload(s.actModel[cur][ai])
		s.cur.Steps = append(s.cur.Steps, session.Step{State: cur, Action: ai, Data: data})
		s.noteStepGen(i, s.actModel[cur][ai])
		e.noteStepMuts(i)
		cur = acts[ai].Next
		if e.r.Chance(4) {
			break
		}
	}
}

// mutateSequence picks a retained (or fleet-synced) base sequence and
// applies one sequence operator: a structural operator from
// internal/session, or payload regeneration on one step.
func (e *Engine) mutateSequence() {
	s := e.sess
	base := e.pickSeqBase()
	// Shallow-copy the steps into the working sequence: the structural
	// operators mutate the step slice in place and must never corrupt the
	// retained deep copies. Payload bytes are aliased — no operator writes
	// through them.
	s.cur.Steps = append(s.cur.Steps[:0], base.Steps...)
	op := e.pickSeqOp()
	s.opRound = op
	s.opTrials[op]++
	if op < session.NumOps {
		var donor session.Sequence
		if op == session.OpSplice {
			donor = s.seqs[e.r.Intn(len(s.seqs))].seq
		}
		session.Apply(e.r, s.sm, op, &s.cur, donor)
	}
	s.clearStepGen()
	if op == seqOpPayload {
		if n := len(s.cur.Steps); n > 0 {
			i := e.r.Intn(n)
			st := &s.cur.Steps[i]
			mi := s.actModel[st.State][st.Action]
			st.Data = e.genStepPayload(mi)
			s.noteStepGen(i, mi)
			e.noteStepMuts(i)
		}
	}
}

// pickSeqBase selects the base sequence for mutation: occasionally a
// fleet-synced corpus sequence (entries peers pushed through the journal,
// repaired onto this model), otherwise a retained sequence drawn with
// rarity weighting — sequences ending in rarely-exercised states are
// preferred, the session analogue of rarity-weighted seed selection.
func (e *Engine) pickSeqBase() session.Sequence {
	s := e.sess
	if pool := e.corp.Sequences(s.sm.Name); len(pool) > 0 && e.r.Chance(8) {
		enc := pool[e.r.Intn(len(pool))]
		if seq, err := session.Decode(enc.Data); err == nil {
			s.sm.Repair(&seq)
			if len(seq.Steps) > 0 {
				return seq
			}
		}
	}
	var maxSent uint64
	for _, n := range s.stateSent {
		if n > maxSent {
			maxSent = n
		}
	}
	weight := func(rs *retainedSeq) uint64 {
		return 1 + maxSent/(1+s.stateSent[rs.endState])
	}
	var total uint64
	for i := range s.seqs {
		total += weight(&s.seqs[i])
	}
	k := e.r.Uint64() % total // total >= len(seqs) >= 1
	for i := range s.seqs {
		if w := weight(&s.seqs[i]); k < w {
			return s.seqs[i].seq
		} else {
			k -= w
		}
	}
	return s.seqs[len(s.seqs)-1].seq // unreachable: k < total
}

// pickSeqOp draws one sequence operator: uniform until warmup (and always
// without the adaptive scheduler), then weighted floor+span by smoothed
// yield — the same shape the byte-mutator scheduler uses, so campaigns
// learn which granularity of sequence perturbation pays.
func (e *Engine) pickSeqOp() int {
	s := e.sess
	if !e.sched.on {
		return e.r.Intn(seqOpChoices)
	}
	var trials uint64
	for _, t := range s.opTrials {
		trials += t
	}
	if trials < seqOpWarmup {
		return e.r.Intn(seqOpChoices)
	}
	var yields [seqOpChoices]float64
	maxY := 0.0
	for i := range s.opTrials {
		y := (float64(s.opHits[i]) + 1) / (float64(s.opTrials[i]) + schedYieldPrior)
		yields[i] = y
		if y > maxY {
			maxY = y
		}
	}
	var weights [seqOpChoices]uint64
	var total uint64
	for i, y := range yields {
		weights[i] = schedFloorWeight + uint64(schedSpanWeight*y/maxY+0.5)
		total += weights[i]
	}
	k := e.r.Uint64() % total
	for i, w := range weights {
		if k < w {
			return i
		}
		k -= w
	}
	return seqOpChoices - 1 // unreachable: k < total
}

// genStepPayload renders one step's payload for model mi: half the time
// the model's faithful default instance with fixups applied — legal
// handshake material that carries the walk deep into the state machine —
// and half the time the full baseline generation path, mutators and all.
func (e *Engine) genStepPayload(mi int) []byte {
	m := e.cfg.Models[mi]
	if e.sched.on {
		e.sched.beginRound(mi)
	}
	if e.r.Bool() {
		// The default instance is fixed up once, when built, and File
		// Fixup is idempotent: its shared leaf table renders as it is.
		return m.DefaultFlat().Render(&e.arena)
	}
	return e.baselineGenerate(m)
}

// noteStepGen records step i's generation round: the model its payload
// was generated for and the mutators applied, copied out of the
// scheduler's live round state.
func (s *sessionCore) noteStepGen(i, mi int) {
	s.growStepScratch(i + 1)
	s.stepModel[i] = mi
	s.stepMuts[i] = s.stepMuts[i][:0]
}

// noteStepMuts copies the scheduler's round credit set into step i's
// slot; called by the engine right after generating the payload.
func (e *Engine) noteStepMuts(i int) {
	s := e.sess
	if e.sched.on {
		s.stepMuts[i] = append(s.stepMuts[i][:0], e.sched.roundMuts...)
	}
}

// clearStepGen resets every step's credit context to "payload carried
// over from an earlier round": no model, no mutators.
func (s *sessionCore) clearStepGen() {
	n := len(s.cur.Steps)
	s.growStepScratch(n)
	s.stepModel = s.stepModel[:n]
	for i := 0; i < n; i++ {
		s.stepModel[i] = -1
		s.stepMuts[i] = s.stepMuts[i][:0]
	}
}

// growStepScratch extends the per-step scratch to at least n entries.
func (s *sessionCore) growStepScratch(n int) {
	for len(s.stepModel) < n {
		s.stepModel = append(s.stepModel, -1)
	}
	for len(s.stepMuts) < n {
		s.stepMuts = append(s.stepMuts, nil)
	}
}

// executeSequence drives the working sequence down one target session:
// open a session boundary on session-aware backends, then run each step
// through the engine's one feedback step (observe) plus the per-state
// accounting. A non-OK step aborts the rest of the sequence — the target's
// session is gone.
func (e *Engine) executeSequence() int {
	s := e.sess
	if e.execErr != nil {
		return 0
	}
	if bs, ok := e.exec.(executor.SessionExecutor); ok {
		if err := bs.BeginSession(); err != nil {
			e.execErr = err
			return 0
		}
	}
	e.stats.Sequences++
	s.prevEdges = e.virgin.Edges()
	execs := 0
	anyValuable := false
	for i := range s.cur.Steps {
		st := &s.cur.Steps[i]
		e.stats.Execs++
		execs++
		res, err := e.exec.Run(st.Data)
		if err != nil {
			if e.execErr == nil {
				e.execErr = err
			}
			break
		}
		if res.Outcome == sandbox.Crash && res.Repro == nil {
			// In-process backends report no journal; the executed
			// prefix *is* the reproducer, one session from the top.
			res.Repro = make([][]byte, 0, i+1)
			for j := 0; j <= i; j++ {
				res.Repro = append(res.Repro, s.cur.Steps[j].Data)
			}
			res.ReproStarts = []int{0}
		}
		s.noteSent(st.State, e.stats.Execs)
		var liveMuts []int
		if e.sched.on {
			// Restore the round context of the step being observed, so
			// operator credit lands on the mutators that actually produced
			// this payload (steps carried over from earlier rounds carry
			// none). The live round slice is swapped back afterwards: the
			// next beginRound truncates it in place and must not scribble
			// over the step's stored credit set.
			e.sched.curModel = s.stepModel[i]
			liveMuts = e.sched.roundMuts
			e.sched.roundMuts = s.stepMuts[i]
		}
		valuable := e.observe(st.Data, &res)
		if e.sched.on {
			e.sched.roundMuts = liveMuts
		}
		if valuable {
			anyValuable = true
			cur := e.virgin.Edges()
			s.stateEdges[st.State] += cur - s.prevEdges
			s.prevEdges = cur
			e.retainSequence(i)
		}
		if res.Outcome != sandbox.OK {
			break
		}
	}
	if e.sched.on {
		e.sched.curModel = -1
	}
	if s.opRound >= 0 && anyValuable {
		s.opHits[s.opRound]++
	}
	return execs
}

// noteSent records one message sent from the state, logging the first
// exercise of each state for the driver's window hook.
func (s *sessionCore) noteSent(state, exec int) {
	s.stateSent[state]++
	if !s.reached[state] {
		s.reached[state] = true
		s.reachedN++
		s.pendingStates = append(s.pendingStates, StateInfo{State: s.sm.States[state].Name, Exec: exec})
	}
}

// retainSequence deep-copies the valuable prefix (steps 0..i) into the
// retained queue and publishes its encoding to the corpus, where the
// journal — and through it fleetnet sync — carries it to peers.
func (e *Engine) retainSequence(i int) {
	s := e.sess
	prefix := session.Sequence{Steps: s.cur.Steps[:i+1]}.Clone()
	end := s.sm.States[prefix.Steps[i].State].Actions[prefix.Steps[i].Action].Next
	s.seqs = append(s.seqs, retainedSeq{seq: prefix, endState: end})
	if len(s.seqs) > sessionRetained {
		s.seqs = s.seqs[1:]
	}
	s.encScratch = session.Encode(s.encScratch[:0], prefix)
	enc := append([]byte(nil), s.encScratch...)
	e.corp.AddSequence(s.sm.Name, enc)
}

// takeNewStates returns and clears the first-reach events logged since
// the last call — the driver drains it at window boundaries.
func (e *Engine) takeNewStates() []StateInfo {
	if e.sess == nil || len(e.sess.pendingStates) == 0 {
		return nil
	}
	out := e.sess.pendingStates
	e.sess.pendingStates = nil
	return out
}

// stateCoverage builds the per-state accounting snapshot.
func (s *sessionCore) stateCoverage() []StateCoverage {
	out := make([]StateCoverage, len(s.sm.States))
	for i := range s.sm.States {
		out[i] = StateCoverage{
			State: s.sm.States[i].Name,
			Sent:  s.stateSent[i],
			Edges: s.stateEdges[i],
		}
	}
	return out
}

// seqOpStats builds the sequence-operator accounting snapshot.
func (s *sessionCore) seqOpStats() []MutatorStat {
	out := make([]MutatorStat, seqOpChoices)
	for i := range out {
		out[i] = MutatorStat{Name: seqOpName(i), Trials: s.opTrials[i], Hits: s.opHits[i]}
	}
	return out
}
