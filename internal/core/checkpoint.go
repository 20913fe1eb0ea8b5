package core

import (
	"fmt"
	"slices"

	"repro/internal/checkpoint"
	"repro/internal/corpus"
	"repro/internal/datamodel"
	"repro/internal/executor"
	"repro/internal/session"
)

// This file declares the durable fleet checkpoint: the shared campaign
// state, the fleet's merge cursors, and every worker engine's full state.
// Each layer declares its state once, as an ordered []checkpoint.Field
// (Fleet.sections, Engine.fields, scheduler.fields, sessionCore.fields),
// and Checkpoint and RestoreCheckpoint both walk that declaration, so the
// two directions cannot disagree. Next to each list a comment names what it
// leaves out and why.
//
// Checkpoints are taken at merge-window boundaries only: Checkpoint and
// RestoreCheckpoint have the same concurrency contract as Stats — the
// fleet must be quiescent (no Drive in flight). That is what makes the
// snapshot a consistent cut with no worker stream perturbed: between Drive
// calls every pending batch is empty, every scheduler round is closed, and
// the workers' RNG states are exactly "about to generate the next round".

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

// section is one framed region of the fleet checkpoint: its ID, the fields
// its body declares, and what restore does once they are read.
type section struct {
	id       uint64
	fields   []checkpoint.Field
	restored func()
}

// sections declares the fleet checkpoint in envelope order. The meta
// section is the worker count and each worker's journal cursors; a
// workerPeer's engine and journal registrations are left out (NewFleet
// makes them in worker order, so restored cursors land on the same slots),
// and so are its published record (PublishStats re-derives it) and its
// coverage cursors (a restored change log is a new generation, read whole).
//
// Restore drops the shared corpus's cursor slots beyond the fleet's own
// workers: they belonged to network peers of the previous incarnation, and
// dead cursors must not pin journal compaction. A peer that reconnects
// re-registers, and its out-of-range resume mark lands in the full-replay
// sync fallback — which is how a hub or mesh fleet heals around a restored
// node. A worker's journal has one consumer, the fleet; its further slots
// are stale too.
func (f *Fleet) sections() []section {
	st := f.state
	secs := []section{
		{id: secFleetMeta, fields: []checkpoint.Field{
			checkpoint.Dim(len(f.workers), "workers"),
			checkpoint.Rows(len(f.peers), func(i int) []checkpoint.Field {
				p := f.peers[i]
				return []checkpoint.Field{checkpoint.Int(&p.pushed), checkpoint.Int(&p.pulled), checkpoint.Int(&p.crashesSeen)}
			}),
		}},
		{id: secSharedVirgin, fields: []checkpoint.Field{st.virgin}},
		{id: secSharedCorpus, fields: []checkpoint.Field{st.corp}, restored: func() { dropPeersFrom(st.corp, len(f.workers)) }},
		{id: secSharedCrash, fields: []checkpoint.Field{st.crashes}},
	}
	for _, w := range f.workers {
		w := w
		secs = append(secs, section{id: secWorker, fields: w.fields(), restored: func() {
			dropPeersFrom(w.corp, 1)
			w.resetTransient()
		}})
	}
	return secs
}

// dropPeersFrom drops every peer cursor slot of c from id on.
func dropPeersFrom(c *corpus.Corpus, id int) {
	for ; id < c.Peers(); id++ {
		c.DropPeer(id)
	}
}

// walk calls fn on every section index in order, stopping at the first
// error. The shared sections are walked under one hold of the SyncState
// lock: a consistent cut of what network peers touch between windows.
func (f *Fleet) walk(n int, fn func(i int) error) error {
	run := func(from, to int) (err error) {
		for i := from; i < to && err == nil; i++ {
			err = fn(i)
		}
		return err
	}
	err := run(0, secSharedVirgin-1)
	if err == nil {
		f.state.mu.Lock()
		err = run(secSharedVirgin-1, secWorker-1)
		f.state.mu.Unlock()
	}
	if err == nil {
		err = run(secWorker-1, n)
	}
	return err
}

// Checkpoint serializes the fleet's full campaign state into a canonical
// checkpoint envelope stamped with the campaign's model digest. Must not
// be called while a Drive is in flight; at quiescence the encoding is a
// pure function of campaign state, so checkpoint → restore → checkpoint
// reproduces the identical byte string.
func (f *Fleet) Checkpoint(digest uint64) []byte {
	secs := f.sections()
	out := make([]checkpoint.Section, len(secs))
	_ = f.walk(len(secs), func(i int) error {
		var w checkpoint.Writer
		checkpoint.SnapshotFields(&w, secs[i].fields)
		out[i] = checkpoint.Section{ID: secs[i].id, Body: w.Data()}
		return nil
	})
	return checkpoint.Seal(digest, out)
}

// RestoreCheckpoint overwrites the fleet's campaign state with a
// Checkpoint-produced envelope. digest must match the one the checkpoint
// was sealed with (the campaign's model digest — a checkpoint taken under
// different data models is refused), and the worker count must match the
// fleet's. Must not be called while a Drive is in flight; on error the
// fleet may be partially overwritten and must be discarded.
func (f *Fleet) RestoreCheckpoint(data []byte, digest uint64) error {
	d, got, err := checkpoint.Open(data)
	if err != nil {
		return err
	}
	if d != digest {
		return fmt.Errorf("core: checkpoint model digest %#x does not match campaign %#x", d, digest)
	}
	secs := f.sections()
	if len(got) != len(secs) {
		return fmt.Errorf("core: checkpoint has %d sections, fleet of %d workers needs %d", len(got), len(f.workers), len(secs))
	}
	for i, s := range secs {
		if got[i].ID != s.id {
			return fmt.Errorf("core: checkpoint section %d has id %d, want %d", i, got[i].ID, s.id)
		}
	}
	err = f.walk(len(secs), func(i int) error {
		r := checkpoint.NewReader(got[i].Body)
		err := checkpoint.RestoreFields(r, secs[i].fields)
		if err == nil {
			err = r.Finish()
		}
		if err != nil && secs[i].id == secWorker {
			return fmt.Errorf("core: worker %d: %w", i-(secWorker-1), err)
		}
		if err == nil && secs[i].restored != nil {
			secs[i].restored()
		}
		return err
	})
	if err != nil {
		return err
	}
	// Settle the published records and union figures so StatsApprox and
	// ExecsApprox are exact immediately after the restore.
	f.PublishStats()
	return nil
}

// fields declares one worker engine's durable state in checkpoint order.
// Left out:
//   - pending, pendingSemantic: the in-flight batch, empty between steps;
//   - dedup: the per-batch duplicate filter;
//   - execErr: the sticky backend error (a restored campaign runs a fresh
//     backend);
//   - arena, work, cands, saved, order, donorScr, crk: per-round and
//     per-crack scratch, dead between steps;
//   - cfg, exec, muts: construction wiring.
//
// resetTransient resets the first three. restartsAccum is stored folded
// into the campaign's restart total.
func (e *Engine) fields() []checkpoint.Field {
	return []checkpoint.Field{
		checkpoint.Func(func(w *checkpoint.Writer) {
			for _, v := range e.r.State() {
				w.U64(v)
			}
		}, func(r *checkpoint.Reader) error {
			if st := [4]uint64{r.U64(), r.U64(), r.U64(), r.U64()}; r.Err() == nil {
				return e.r.SetState(st)
			}
			return r.Err()
		}),
		checkpoint.Int(&e.stats.Iterations), checkpoint.Int(&e.stats.Execs), checkpoint.Int(&e.stats.Paths),
		checkpoint.Int(&e.stats.SemanticExecs), checkpoint.Int(&e.stats.SemanticPaths), checkpoint.Int(&e.stats.Sequences),
		checkpoint.Func(func(w *checkpoint.Writer) { w.Int(e.execRestarts()) }, func(r *checkpoint.Reader) error {
			// Future execRestarts() must read the stored total plus whatever
			// the live backend restarts from here on.
			if n := r.Int(); r.Err() == nil {
				e.restartsAccum = n - (e.execRestarts() - e.restartsAccum)
			}
			return r.Err()
		}),
		checkpoint.Int(&e.semExecs), checkpoint.Int(&e.semPaths), checkpoint.Int(&e.baseExecs), checkpoint.Int(&e.basePaths),
		e.virgin, e.corp, e.crashes,
		checkpoint.Value(&e.mut.queue, checkpoint.ListCodec(checkpoint.BlobCodec)),
		checkpoint.Bounded(&e.mut.dryRun, func() int { return len(e.mut.queue) }, "mutation dry-run cursor"),
		e.valuableField(),
		// Scheduler state enables the scheduler if the engine was built
		// without it: the checkpointed campaign's semantics win.
		checkpoint.Optional(func() bool { return e.sched.on }, func(on bool) error {
			if on {
				e.enableAdaptive()
			}
			return nil
		}, e.sched.fields),
		// Session state needs a session-configured engine: the state
		// machine itself is config, not checkpoint.
		checkpoint.Optional(func() bool { return e.sess != nil }, func(on bool) error {
			if on && e.sess == nil {
				return fmt.Errorf("core: checkpoint carries session state but campaign has no state model")
			}
			return nil
		}, func() []checkpoint.Field { return e.sess.fields() }),
		e.targetField(),
	}
}

// resetTransient clears what the engine, scheduler and session
// declarations leave out, after a restore.
func (e *Engine) resetTransient() {
	e.pending = e.pending[:0]
	e.pendingSemantic = false
	e.dedup = make(map[string]bool)
	e.execErr = nil
	if e.sched.on {
		e.sched.curModel = -1
		e.sched.roundMuts = e.sched.roundMuts[:0]
	}
	if s := e.sess; s != nil {
		s.opRound = -1
		s.prevEdges = 0
		s.cur.Steps = s.cur.Steps[:0]
	}
}

// valuableField is the retained valuable instances, one list per model
// index after the model count. The index needs no name beside it: the
// envelope's model digest walks the model names in order, so a checkpoint
// taken under another model list is refused before this field is read. A
// seed is its rendered bytes plus the trace metadata that drives base
// selection. Restore re-cracks the bytes against the model; a seed that no
// longer cracks is dropped — a lost mutation base, not an error.
func (e *Engine) valuableField() checkpoint.Field {
	var model *datamodel.Model // restore: the model of the list being read
	seeds := checkpoint.ListCodec(checkpoint.Record(func(v *valuableSeed) []checkpoint.Field {
		return []checkpoint.Field{
			checkpoint.Func(func(w *checkpoint.Writer) { w.Blob(v.ins.Wire()) }, func(r *checkpoint.Reader) error {
				if data := r.Blob(); r.Err() == nil && e.crk.Crack(model, data) {
					v.ins = e.crk.Flat().Clone()
				}
				return r.Err()
			}),
			checkpoint.Int(&v.depth), checkpoint.Value(&v.edges, edgeList), checkpoint.U64(&v.score),
		}
	}))
	dim := checkpoint.Dim(len(e.cfg.Models), "valuable models")
	return checkpoint.Func(func(w *checkpoint.Writer) {
		dim.Snapshot(w)
		for _, q := range e.valuable {
			seeds.Put(w, q)
		}
	}, func(r *checkpoint.Reader) error {
		if err := dim.Restore(r); err != nil {
			return err
		}
		for mi, m := range e.cfg.Models {
			model = m
			q := seeds.Get(r)
			if r.Err() != nil {
				return r.Err()
			}
			if len(q) > valuablePerModel+1 {
				return fmt.Errorf("core: %d retained seeds for model %q exceeds bound", len(q), m.Name)
			}
			e.valuable[mi] = slices.DeleteFunc(q, func(v valuableSeed) bool { return v.ins == nil })
		}
		return nil
	})
}

// targetField is the long-lived target state (register banks, simulated
// heap wear) when the backend can capture it (executor.StateCheckpointer):
// a presence byte, then the target's fields blob-framed so the worker
// section stays decodable around them.
func (e *Engine) targetField() checkpoint.Field {
	state := func() []checkpoint.Field {
		if sc, ok := e.exec.(executor.StateCheckpointer); ok {
			return sc.StateFields()
		}
		return nil
	}
	return checkpoint.Func(func(w *checkpoint.Writer) {
		fields := state()
		if w.Bool(fields != nil); fields != nil {
			var tw checkpoint.Writer
			checkpoint.SnapshotFields(&tw, fields)
			w.Blob(tw.Data())
		}
	}, func(r *checkpoint.Reader) error {
		if !r.Bool() {
			return r.Err()
		}
		tr := checkpoint.NewReader(r.Blob())
		if r.Err() != nil {
			return r.Err()
		}
		fields := state()
		if fields == nil {
			return fmt.Errorf("core: checkpoint carries target state but the target cannot restore it")
		}
		if err := checkpoint.RestoreFields(tr, fields); err != nil {
			return err
		}
		return tr.Finish()
	})
}

// fields declares the adaptive scheduler's state; enableAdaptive has sized
// the tables, and the stored dimensions must match them. Per model: the
// (model, mutator) cells interleaved — decayed trials and hits, lifetime
// trials and hits — then the recompute countdown, the trial total and the
// weight row (absent during warmup). Then the rarity sidecar, the cadence
// countdowns and the distillation tracker. Left out: on (the engine's
// presence byte), yields and traceEdges (scratch refilled before every
// read), and curModel/roundMuts (the round in flight, closed between
// steps; resetTransient resets them).
func (s *scheduler) fields() []checkpoint.Field {
	nm, nmut := len(s.trials), len(s.yields)
	return []checkpoint.Field{
		checkpoint.Dim(nm, "scheduler models"),
		checkpoint.Dim(nmut, "scheduler mutators"),
		checkpoint.Rows(nm, func(mi int) []checkpoint.Field {
			return []checkpoint.Field{
				checkpoint.Rows(nmut, func(i int) []checkpoint.Field {
					return []checkpoint.Field{checkpoint.Uint(&s.trials[mi][i]), checkpoint.Uint(&s.hits[mi][i]),
						checkpoint.Uint(&s.trialsAll[mi][i]), checkpoint.Uint(&s.hitsAll[mi][i])}
				}),
				checkpoint.Uint(&s.recalcIn[mi]),
				checkpoint.Uint(&s.totalTrials[mi]),
				checkpoint.Optional(func() bool { return s.weights[mi] != nil }, func(on bool) error {
					s.weights[mi] = nil
					if on {
						s.weights[mi] = make([]uint32, nmut)
					}
					return nil
				}, func() []checkpoint.Field { return []checkpoint.Field{checkpoint.Uints(s.weights[mi])} }),
			}
		}),
		s.hitCounts,
		checkpoint.Int(&s.scoreIn), checkpoint.Int(&s.distillIn), checkpoint.Int(&s.distills),
		checkpoint.Value(&s.contribs, checkpoint.ListCodec(checkpoint.Record(func(c *contributor) []checkpoint.Field {
			return []checkpoint.Field{checkpoint.Value(&c.edges, edgeList), checkpoint.Value(&c.puzzles, puzzleRefs())}
		}))),
		checkpoint.Value(&s.pending, checkpoint.ListCodec(checkpoint.Record(func(d *DistillInfo) []checkpoint.Field {
			return []checkpoint.Field{checkpoint.Int(&d.Exec), checkpoint.Int(&d.SeedsKept), checkpoint.Int(&d.SeedsDropped),
				checkpoint.Int(&d.PuzzlesDropped), checkpoint.Int(&d.Edges)}
		}))),
	}
}

// puzzleRefs is a contributor's list of the corpus puzzles its crack
// added. Like every Record codec it is built where it is walked.
func puzzleRefs() checkpoint.Codec[[]puzzleRef] {
	return checkpoint.ListCodec(checkpoint.Record(func(p *puzzleRef) []checkpoint.Field {
		return []checkpoint.Field{checkpoint.Value(&p.sig, checkpoint.StringCodec), checkpoint.Blob(&p.data)}
	}))
}

// fields declares the session-fuzzing state: per-state accounting
// interleaved by state (messages sent, edges attributed, reached), the
// first-reach event queue, the retained valuable sequences (canonical
// encodings, each ending in a state of the machine), and the
// sequence-operator tables interleaved by operator; the state and operator
// counts must match the live ones. Left out: sm, seqSig and actModel
// (wiring from Config), encScratch and stateW (scratch), pool (a decode
// cache that only misses against a restored corpus), and the
// per-iteration context — opRound, prevEdges and cur (resetTransient
// resets them), stepModel and stepMuts (regrown every round).
func (s *sessionCore) fields() []checkpoint.Field {
	ns := len(s.sm.States)
	return []checkpoint.Field{
		checkpoint.Dim(ns, "session states"),
		checkpoint.Rows(ns, func(i int) []checkpoint.Field {
			return []checkpoint.Field{checkpoint.Uint(&s.stateSent[i]), checkpoint.Int(&s.stateEdges[i]), checkpoint.Bool(&s.reached[i])}
		}),
		checkpoint.Value(&s.pendingStates, checkpoint.ListCodec(checkpoint.Record(func(si *StateInfo) []checkpoint.Field {
			return []checkpoint.Field{checkpoint.Value(&si.State, checkpoint.StringCodec), checkpoint.Int(&si.Exec)}
		}))),
		checkpoint.Value(&s.seqs, checkpoint.ListCodec(checkpoint.Record(func(rs *retainedSeq) []checkpoint.Field {
			return []checkpoint.Field{checkpoint.Value(&rs.seq, sequenceCodec),
				checkpoint.Bounded(&rs.endState, func() int { return ns - 1 }, "retained sequence end state")}
		}))),
		checkpoint.Dim(seqOpChoices, "sequence operators"),
		checkpoint.Rows(seqOpChoices, func(i int) []checkpoint.Field {
			return []checkpoint.Field{checkpoint.Uint(&s.opTrials[i]), checkpoint.Uint(&s.opHits[i])}
		}),
	}
}

// sequenceCodec stores a sequence as its canonical encoding, blob-framed;
// an encoding session.Decode rejects fails the restore.
var sequenceCodec = checkpoint.Codec[session.Sequence]{
	Put: func(w *checkpoint.Writer, seq session.Sequence) { w.Blob(session.Encode(nil, seq)) },
	Get: func(r *checkpoint.Reader) session.Sequence {
		seq, err := session.Decode(r.Blob())
		if err != nil {
			r.Fail(fmt.Errorf("core: retained sequence: %w", err))
		}
		return seq
	},
}
