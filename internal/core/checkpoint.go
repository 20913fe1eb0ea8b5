package core

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/checkpoint"
	"repro/internal/datamodel"
	"repro/internal/executor"
	"repro/internal/session"
)

// This file composes the per-layer Snapshot/Restore seams into one durable
// fleet checkpoint: the shared campaign state (union virgin map, shared
// corpus with journal and peer cursors, relay crash bank), the fleet's
// merge-protocol cursors, and every worker engine's full state — RNG
// stream position, campaign counters, coverage, corpus, crash bank,
// mutation queue, retained valuable seeds, adaptive-scheduler tables, and
// session-fuzzing state.
//
// Checkpoints are taken at merge-window boundaries only: Checkpoint and
// RestoreCheckpoint have the same concurrency contract as Stats — the
// fleet must be quiescent (no Drive in flight). That is what makes the
// snapshot a consistent cut with no worker stream perturbed: between Drive
// calls every pending batch is empty, every scheduler round is closed, and
// the workers' RNG states are exactly "about to generate the next round".
//
// What is deliberately NOT restored from a worker section: the arena and
// its per-round scratch (dead between steps by construction), the sticky
// backend error (the restored campaign runs a fresh backend), and the
// per-batch dedup filter. Retained valuable instances ARE restored — their
// rendered bytes are re-cracked against the (digest-pinned) models — so a
// warm restart keeps its mutation bases instead of re-learning them.

// edgeList is a counted list of 16-bit coverage-map indices.
var edgeList = checkpoint.ListCodec(checkpoint.WordCodec[uint16]())

// Section IDs of the fleet checkpoint envelope, in the order Seal emits
// them: one meta section, the three shared-state sections, then one worker
// section per worker engine in worker order.
const (
	secFleetMeta    = 1
	secSharedVirgin = 2
	secSharedCorpus = 3
	secSharedCrash  = 4
	secWorker       = 5
)

// Checkpoint serializes the fleet's full campaign state into a canonical
// checkpoint envelope stamped with the campaign's model digest. Must not
// be called while a Drive is in flight; at quiescence the encoding is a
// pure function of campaign state, so checkpoint → restore → checkpoint
// reproduces the identical byte string.
func (f *Fleet) Checkpoint(digest uint64) []byte {
	var meta checkpoint.Writer
	meta.Int(len(f.workers))
	for _, p := range f.peers {
		meta.Int(p.pushed)
		meta.Int(p.pulled)
		meta.Int(p.crashesSeen)
	}
	sections := make([]checkpoint.Section, 0, 4+len(f.workers))
	sections = append(sections, checkpoint.Section{ID: secFleetMeta, Body: meta.Data()})

	var wv, wc, wb checkpoint.Writer
	st := f.state
	st.mu.Lock()
	st.virgin.Snapshot(&wv)
	st.corp.Snapshot(&wc)
	st.crashes.Snapshot(&wb)
	st.mu.Unlock()
	sections = append(sections,
		checkpoint.Section{ID: secSharedVirgin, Body: wv.Data()},
		checkpoint.Section{ID: secSharedCorpus, Body: wc.Data()},
		checkpoint.Section{ID: secSharedCrash, Body: wb.Data()},
	)

	for _, w := range f.workers {
		var ww checkpoint.Writer
		w.snapshot(&ww)
		sections = append(sections, checkpoint.Section{ID: secWorker, Body: ww.Data()})
	}
	return checkpoint.Seal(digest, sections)
}

// RestoreCheckpoint overwrites the fleet's campaign state with a
// Checkpoint-produced envelope. digest must match the one the checkpoint
// was sealed with (the campaign's model digest — a checkpoint taken under
// different data models is refused), and the worker count must match the
// fleet's. Must not be called while a Drive is in flight; on error the
// fleet may be partially overwritten and must be discarded.
//
// Peer-cursor healing: cursor slots of the shared corpus beyond the
// fleet's own workers belonged to network peers of the previous
// incarnation. They are dropped so dead cursors never pin journal
// compaction; when those peers reconnect they re-register, and their
// out-of-range resume marks land in the existing full-replay sync
// fallback — which is how a whole hub or mesh fleet heals around a
// restored node.
func (f *Fleet) RestoreCheckpoint(data []byte, digest uint64) error {
	d, sections, err := checkpoint.Open(data)
	if err != nil {
		return err
	}
	if d != digest {
		return fmt.Errorf("core: checkpoint model digest %#x does not match campaign %#x", d, digest)
	}
	want := 4 + len(f.workers)
	if len(sections) != want {
		return fmt.Errorf("core: checkpoint has %d sections, fleet of %d workers needs %d", len(sections), len(f.workers), want)
	}
	for i, id := range []uint64{secFleetMeta, secSharedVirgin, secSharedCorpus, secSharedCrash} {
		if sections[i].ID != id {
			return fmt.Errorf("core: checkpoint section %d has id %d, want %d", i, sections[i].ID, id)
		}
	}
	for i := 4; i < len(sections); i++ {
		if sections[i].ID != secWorker {
			return fmt.Errorf("core: checkpoint section %d has id %d, want worker section %d", i, sections[i].ID, secWorker)
		}
	}

	meta := checkpoint.NewReader(sections[0].Body)
	if n := meta.Int(); meta.Err() == nil && n != len(f.workers) {
		return fmt.Errorf("core: checkpoint holds %d workers, fleet has %d", n, len(f.workers))
	}
	type peerMeta struct{ pushed, pulled, crashesSeen int }
	pm := make([]peerMeta, len(f.peers))
	for i := range pm {
		pm[i] = peerMeta{pushed: meta.Int(), pulled: meta.Int(), crashesSeen: meta.Int()}
	}
	if err := meta.Finish(); err != nil {
		return err
	}

	st := f.state
	st.mu.Lock()
	err = func() error {
		r := checkpoint.NewReader(sections[1].Body)
		if err := st.virgin.Restore(r); err != nil {
			return err
		}
		if err := r.Finish(); err != nil {
			return err
		}
		r = checkpoint.NewReader(sections[2].Body)
		if err := st.corp.Restore(r); err != nil {
			return err
		}
		if err := r.Finish(); err != nil {
			return err
		}
		// Drop cursor slots of the previous incarnation's network peers;
		// the fleet's own workers keep slots 0..workers-1 (registration
		// order in NewFleet is worker order, so restored cursors land on
		// the same slots).
		for id := len(f.workers); id < st.corp.Peers(); id++ {
			st.corp.DropPeer(id)
		}
		r = checkpoint.NewReader(sections[3].Body)
		if err := st.crashes.Restore(r); err != nil {
			return err
		}
		return r.Finish()
	}()
	st.mu.Unlock()
	if err != nil {
		return err
	}

	for i, w := range f.workers {
		r := checkpoint.NewReader(sections[4+i].Body)
		if err := w.restore(r); err != nil {
			return fmt.Errorf("core: worker %d: %w", i, err)
		}
		if err := r.Finish(); err != nil {
			return fmt.Errorf("core: worker %d: %w", i, err)
		}
		// The fleet is the lone registered consumer of a worker's journal;
		// any further restored slots are stale.
		for id := 1; id < w.corp.Peers(); id++ {
			w.corp.DropPeer(id)
		}
		p := f.peers[i]
		p.pushed, p.pulled, p.crashesSeen = pm[i].pushed, pm[i].pulled, pm[i].crashesSeen
		if w.sched.on {
			atomic.StoreInt32(&f.adaptive, 1)
		}
	}
	// Settle the published counters so StatsApprox and ExecsApprox are
	// exact immediately after the restore.
	f.PublishStats()
	return nil
}

// snapshot writes one worker engine's full state. The engine must be
// quiescent: between Steps the pending batch is empty and every scratch
// structure is dead, so only durable state is written.
func (e *Engine) snapshot(w *checkpoint.Writer) {
	st := e.r.State()
	w.U64(st[0])
	w.U64(st[1])
	w.U64(st[2])
	w.U64(st[3])
	w.Int(e.stats.Iterations)
	w.Int(e.stats.Execs)
	w.Int(e.stats.Paths)
	w.Int(e.stats.SemanticExecs)
	w.Int(e.stats.SemanticPaths)
	w.Int(e.stats.Sequences)
	w.Int(e.execRestarts())
	w.Int(e.semExecs)
	w.Int(e.semPaths)
	w.Int(e.baseExecs)
	w.Int(e.basePaths)
	e.virgin.Snapshot(w)
	e.corp.Snapshot(w)
	e.crashes.Snapshot(w)

	w.Int(len(e.mut.queue))
	for _, s := range e.mut.queue {
		w.Blob(s)
	}
	w.Int(e.mut.dryRun)

	// Retained valuable instances, in sorted model-name order: each entry
	// is stored as its rendered bytes (re-cracked on restore) plus the
	// trace metadata that drives base selection.
	names := make([]string, 0, len(e.valuable))
	for name, q := range e.valuable {
		if len(q) > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	w.Int(len(names))
	for _, name := range names {
		q := e.valuable[name]
		w.String(name)
		w.Int(len(q))
		for i := range q {
			w.Blob(q[i].ins.Render(nil))
			w.Int(q[i].depth)
			edgeList.Put(w, q[i].edges)
			w.U64(q[i].score)
		}
	}

	w.Bool(e.sched.on)
	if e.sched.on {
		e.sched.snapshot(w)
	}
	w.Bool(e.sess != nil)
	if e.sess != nil {
		e.sess.snapshot(w)
	}

	// Target layer: long-lived target state (register banks, simulated
	// heap wear) when the backend can capture it. Blob-framed so the
	// worker section stays decodable around an opaque target dump.
	var tw checkpoint.Writer
	captured := false
	if sc, ok := e.exec.(executor.StateCheckpointer); ok {
		captured = sc.SnapshotState(&tw)
	}
	w.Bool(captured)
	if captured {
		w.Blob(tw.Data())
	}
}

// restore overwrites the engine's durable state with a snapshot-produced
// dump and resets every transient: pending batch, dedup filter, sticky
// backend error. A snapshot with scheduler state enables the scheduler if
// the engine was built without it (the checkpointed campaign's semantics
// win); a snapshot carrying session state requires a session-configured
// engine, since the state machine itself is config, not checkpoint.
func (e *Engine) restore(r *checkpoint.Reader) error {
	var st [4]uint64
	st[0], st[1], st[2], st[3] = r.U64(), r.U64(), r.U64(), r.U64()
	if r.Err() != nil {
		return r.Err()
	}
	if err := e.r.SetState(st); err != nil {
		return err
	}
	e.stats.Iterations = r.Int()
	e.stats.Execs = r.Int()
	e.stats.Paths = r.Int()
	e.stats.SemanticExecs = r.Int()
	e.stats.SemanticPaths = r.Int()
	e.stats.Sequences = r.Int()
	restarts := r.Int()
	e.semExecs = r.Int()
	e.semPaths = r.Int()
	e.baseExecs = r.Int()
	e.basePaths = r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	// Future execRestarts() must read the stored total plus whatever the
	// live backend restarts from here on, so the accumulator absorbs the
	// stored count net of the live backend's current figure.
	e.restartsAccum = restarts - (e.execRestarts() - e.restartsAccum)

	if err := e.virgin.Restore(r); err != nil {
		return err
	}
	if err := e.corp.Restore(r); err != nil {
		return err
	}
	if err := e.crashes.Restore(r); err != nil {
		return err
	}

	nq := r.Count()
	e.mut.queue = nil
	for i := 0; i < nq && r.Err() == nil; i++ {
		e.mut.queue = append(e.mut.queue, r.Blob())
	}
	e.mut.dryRun = r.Int()
	if r.Err() == nil && e.mut.dryRun > len(e.mut.queue) {
		return fmt.Errorf("core: mutation dry-run cursor %d beyond queue of %d", e.mut.dryRun, len(e.mut.queue))
	}

	models := make(map[string]int, len(e.cfg.Models))
	for i, m := range e.cfg.Models {
		models[m.Name] = i
	}
	e.valuable = make(map[string][]valuableSeed)
	nn := r.Count()
	for i := 0; i < nn && r.Err() == nil; i++ {
		name := r.String()
		nv := r.Count()
		mi, known := models[name]
		if r.Err() == nil && nv > valuablePerModel+1 {
			return fmt.Errorf("core: %d retained seeds for model %q exceeds bound", nv, name)
		}
		for j := 0; j < nv && r.Err() == nil; j++ {
			data := r.Blob()
			depth := r.Int()
			edges := edgeList.Get(r)
			score := r.U64()
			if r.Err() != nil || !known {
				continue
			}
			// Re-crack the rendered instance against its model. The digest
			// pinned the models, so this normally succeeds; an entry that
			// no longer cracks is dropped — a lost mutation base, not an
			// error.
			m := e.cfg.Models[mi]
			ins, err := m.Crack(data)
			if err != nil {
				continue
			}
			flat := m.Flatten(new(datamodel.Flat), ins)
			e.valuable[name] = append(e.valuable[name], valuableSeed{ins: flat, depth: depth, edges: edges, score: score})
		}
	}

	if r.Bool() {
		if !e.sched.on {
			e.enableAdaptive()
		}
		if err := e.sched.restore(r, len(e.cfg.Models), len(e.muts)); err != nil {
			return err
		}
	}
	if r.Bool() {
		if e.sess == nil {
			return fmt.Errorf("core: checkpoint carries session state but campaign has no state model")
		}
		if err := e.sess.restore(r); err != nil {
			return err
		}
	}
	if r.Bool() {
		body := r.Blob()
		if r.Err() != nil {
			return r.Err()
		}
		sc, ok := e.exec.(executor.StateCheckpointer)
		if !ok {
			return fmt.Errorf("core: checkpoint carries target state but the backend cannot restore it")
		}
		tr := checkpoint.NewReader(body)
		if err := sc.RestoreState(tr); err != nil {
			return err
		}
		if err := tr.Finish(); err != nil {
			return err
		}
	}
	if r.Err() != nil {
		return r.Err()
	}

	e.pending = e.pending[:0]
	e.pendingSemantic = false
	e.dedup = make(map[string]bool)
	e.execErr = nil
	return nil
}

// snapshot writes the adaptive scheduler's state: the per-(model,mutator)
// trial/hit grids (live decayed and lifetime), the weight rows (nil during
// a model's warmup), the rarity sidecar, the cadence countdowns, and the
// distillation tracker. The round-in-flight fields (curModel, roundMuts)
// are dead between steps and are not written.
func (s *scheduler) snapshot(w *checkpoint.Writer) {
	nm, nmut := len(s.trials), len(s.yields)
	w.Int(nm)
	w.Int(nmut)
	for mi := 0; mi < nm; mi++ {
		for i := 0; i < nmut; i++ {
			w.Uvarint(uint64(s.trials[mi][i]))
			w.Uvarint(uint64(s.hits[mi][i]))
			w.Uvarint(s.trialsAll[mi][i])
			w.Uvarint(s.hitsAll[mi][i])
		}
		w.Uvarint(uint64(s.recalcIn[mi]))
		w.Uvarint(s.totalTrials[mi])
		w.Bool(s.weights[mi] != nil)
		if s.weights[mi] != nil {
			for i := 0; i < nmut; i++ {
				w.Uvarint(uint64(s.weights[mi][i]))
			}
		}
	}
	s.hitCounts.Snapshot(w)
	w.Int(s.scoreIn)
	w.Int(s.distillIn)
	w.Int(s.distills)
	w.Int(len(s.contribs))
	for _, c := range s.contribs {
		edgeList.Put(w, c.edges)
		w.Int(len(c.puzzles))
		for _, p := range c.puzzles {
			w.String(p.sig)
			w.Blob(p.data)
		}
	}
	w.Int(len(s.pending))
	for _, d := range s.pending {
		w.Int(d.Exec)
		w.Int(d.SeedsKept)
		w.Int(d.SeedsDropped)
		w.Int(d.PuzzlesDropped)
		w.Int(d.Edges)
	}
}

// restore overwrites the scheduler's state (the tables must already be
// sized by enableAdaptive). The stored dimensions must match the engine's
// model and mutator counts.
func (s *scheduler) restore(r *checkpoint.Reader, nm, nmut int) error {
	gotNM, gotNMut := r.Int(), r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	if gotNM != nm || gotNMut != nmut {
		return fmt.Errorf("core: scheduler tables are %dx%d, campaign is %dx%d", gotNM, gotNMut, nm, nmut)
	}
	for mi := 0; mi < nm && r.Err() == nil; mi++ {
		for i := 0; i < nmut; i++ {
			s.trials[mi][i] = uint32(r.Uvarint())
			s.hits[mi][i] = uint32(r.Uvarint())
			s.trialsAll[mi][i] = r.Uvarint()
			s.hitsAll[mi][i] = r.Uvarint()
		}
		s.recalcIn[mi] = uint32(r.Uvarint())
		s.totalTrials[mi] = r.Uvarint()
		if r.Bool() {
			row := make([]uint32, nmut)
			for i := 0; i < nmut; i++ {
				row[i] = uint32(r.Uvarint())
			}
			s.weights[mi] = row
		} else {
			s.weights[mi] = nil
		}
	}
	s.curModel = -1
	s.roundMuts = s.roundMuts[:0]
	if err := s.hitCounts.Restore(r); err != nil {
		return err
	}
	s.scoreIn = r.Int()
	s.distillIn = r.Int()
	s.distills = r.Int()
	nc := r.Count()
	s.contribs = nil
	for i := 0; i < nc && r.Err() == nil; i++ {
		c := contributor{edges: edgeList.Get(r)}
		np := r.Count()
		for j := 0; j < np && r.Err() == nil; j++ {
			c.puzzles = append(c.puzzles, puzzleRef{sig: r.String(), data: r.Blob()})
		}
		if r.Err() == nil {
			s.contribs = append(s.contribs, c)
		}
	}
	nd := r.Count()
	s.pending = nil
	for i := 0; i < nd && r.Err() == nil; i++ {
		s.pending = append(s.pending, DistillInfo{
			Exec:           r.Int(),
			SeedsKept:      r.Int(),
			SeedsDropped:   r.Int(),
			PuzzlesDropped: r.Int(),
			Edges:          r.Int(),
		})
	}
	return r.Err()
}

// snapshot writes the session-fuzzing state: per-state accounting, the
// first-reach event queue, the retained valuable sequences (through the
// canonical sequence codec), and the sequence-operator tables. Per-step
// scratch (cur, stepModel, stepMuts) is dead between iterations and is not
// written.
func (s *sessionCore) snapshot(w *checkpoint.Writer) {
	w.Int(len(s.stateSent))
	for i := range s.stateSent {
		w.Uvarint(s.stateSent[i])
		w.Int(s.stateEdges[i])
		w.Bool(s.reached[i])
	}
	w.Int(len(s.pendingStates))
	for _, ps := range s.pendingStates {
		w.String(ps.State)
		w.Int(ps.Exec)
	}
	w.Int(len(s.seqs))
	for _, rs := range s.seqs {
		w.Blob(session.Encode(nil, rs.seq))
		w.Int(rs.endState)
	}
	w.Int(seqOpChoices)
	for i := 0; i < seqOpChoices; i++ {
		w.Uvarint(s.opTrials[i])
		w.Uvarint(s.opHits[i])
	}
}

// restore overwrites the session state. The stored state count must match
// the configured state machine's, and every retained sequence must decode
// through the canonical sequence codec.
func (s *sessionCore) restore(r *checkpoint.Reader) error {
	ns := r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	if ns != len(s.sm.States) {
		return fmt.Errorf("core: checkpoint has %d session states, model %q has %d", ns, s.sm.Name, len(s.sm.States))
	}
	s.reachedN = 0
	for i := 0; i < ns && r.Err() == nil; i++ {
		s.stateSent[i] = r.Uvarint()
		s.stateEdges[i] = r.Int()
		s.reached[i] = r.Bool()
		if s.reached[i] {
			s.reachedN++
		}
	}
	np := r.Count()
	s.pendingStates = nil
	for i := 0; i < np && r.Err() == nil; i++ {
		s.pendingStates = append(s.pendingStates, StateInfo{State: r.String(), Exec: r.Int()})
	}
	nq := r.Count()
	s.seqs = nil
	for i := 0; i < nq && r.Err() == nil; i++ {
		enc := r.Blob()
		end := r.Int()
		if r.Err() != nil {
			break
		}
		seq, err := session.Decode(enc)
		if err != nil {
			return fmt.Errorf("core: retained sequence %d: %w", i, err)
		}
		if end < 0 || end >= len(s.sm.States) {
			return fmt.Errorf("core: retained sequence %d ends in state %d of %d", i, end, len(s.sm.States))
		}
		s.seqs = append(s.seqs, retainedSeq{seq: seq, endState: end})
	}
	if n := r.Int(); r.Err() == nil && n != seqOpChoices {
		return fmt.Errorf("core: checkpoint has %d sequence operators, engine has %d", n, seqOpChoices)
	}
	for i := 0; i < seqOpChoices && r.Err() == nil; i++ {
		s.opTrials[i] = r.Uvarint()
		s.opHits[i] = r.Uvarint()
	}
	s.opRound = -1
	s.prevEdges = 0
	s.cur.Steps = s.cur.Steps[:0]
	return r.Err()
}
