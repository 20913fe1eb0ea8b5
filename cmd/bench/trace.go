package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/coverage"
	"repro/internal/datamodel"
	"repro/internal/executor"
	"repro/internal/fleetnet"
	"repro/internal/mutator"
	"repro/internal/rng"
	"repro/internal/sandbox"
	"repro/internal/session"
	"repro/internal/targets"
	"repro/peachstar"
)

// The traced pass measures every layer from outside: the spans below are
// opened and closed in this package, around calls into the layers' exported
// functions. Nothing inside the program is instrumented.

// span is one timed interval. Spans of a pass share the workload name and
// hang off the root span through Parent (0 = no parent).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer keeps a pass's spans in memory; they are written out when the pass
// ends. Window hooks of a multi-worker fleet record concurrently.
type tracer struct {
	workload string
	t0       time.Time
	mu       sync.Mutex
	spans    []span
}

func newTracer(workload string) *tracer { return &tracer{workload: workload, t0: time.Now()} }

// record stores a finished span and returns its duration.
func (t *tracer) record(name string, parent int, start, end time.Time) time.Duration {
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Workload: t.workload,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds(),
	})
	t.mu.Unlock()
	return end.Sub(start)
}

// open reserves a span whose children are recorded before it ends.
func (t *tracer) open(name string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Workload: t.workload,
		StartNs: time.Since(t.t0).Nanoseconds(),
	})
	return len(t.spans)
}

func (t *tracer) close(id int) {
	t.mu.Lock()
	t.spans[id-1].EndNs = time.Since(t.t0).Nanoseconds()
	t.mu.Unlock()
}

// time runs fn inside a span and returns how long it took.
func (t *tracer) time(name string, parent int, fn func()) time.Duration {
	start := time.Now()
	fn()
	return t.record(name, parent, start, time.Now())
}

// writeJSONL writes the spans one JSON object a line.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// Cadences of the two services a campaign can run beside its loop: the
// session API's defaults, which the ckpt and leaf workloads use.
const (
	ckptEvery = peachstar.DefaultCheckpointEvery
	syncEvery = peachstar.DefaultSyncEvery
	// The first sync window and every emptyEvery-th after it are followed at
	// once by a second one with nothing to send: the wire's floor.
	emptyEvery = 8
)

// tracedFleet is a campaign the benchmark drives itself, window by window,
// with the checkpoint and sync services timed between slices.
type tracedFleet struct {
	w      workload
	tr     *tracer
	root   int
	fleet  *core.Fleet
	cfg    core.Config
	digest uint64
	dir    string // checkpoint directory

	hub  *fleetnet.Hub
	leaf *fleetnet.Leaf

	// Per worker, touched only by that worker's hook.
	lastAt    []time.Time
	lastExecs []int
	windowUs  [][]float64
	stepNs    [][]float64

	ckptMs    []float64
	ckptData  []byte
	syncUs    []float64
	emptyUs   []float64
	syncs     int
	syncErrs  int
	restoreMs float64
}

func (w workload) fleetConfig(seed uint64) (core.Config, core.ParallelConfig, error) {
	tgt, err := targets.New(w.Target)
	if err != nil {
		return core.Config{}, core.ParallelConfig{}, err
	}
	cfg := core.Config{Models: tgt.Models(), Target: tgt, Strategy: core.StrategyPeachStar, Seed: seed}
	if w.Sessions {
		cfg.Session = tgt.(targets.SessionTarget).StateModel()
	}
	pcfg := core.ParallelConfig{Workers: w.Workers}
	if w.Workers > 1 {
		pcfg.NewTarget = func() sandbox.Target {
			t, err := targets.New(w.Target)
			if err != nil {
				panic(err) // the same name resolved a moment ago
			}
			return t
		}
	}
	if w.Leaf {
		pcfg.SeedStream = 1
	}
	return cfg, pcfg, nil
}

func newTracedFleet(w workload, seed uint64, tr *tracer) (*tracedFleet, error) {
	cfg, pcfg, err := w.fleetConfig(seed)
	if err != nil {
		return nil, err
	}
	fleet, err := core.NewFleet(cfg, pcfg)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmpRoot, "trace-ckpt-")
	if err != nil {
		return nil, err
	}
	return &tracedFleet{
		w: w, tr: tr, fleet: fleet, cfg: cfg, dir: dir,
		digest:    fleetnet.ModelDigest(w.Target, cfg.Models),
		lastAt:    make([]time.Time, w.Workers),
		lastExecs: make([]int, w.Workers),
		windowUs:  make([][]float64, w.Workers),
		stepNs:    make([][]float64, w.Workers),
	}, nil
}

func (f *tracedFleet) close() {
	if f.leaf != nil {
		f.leaf.Close()
	}
	if f.hub != nil {
		f.hub.Close()
	}
	os.RemoveAll(f.dir)
}

// attachLeaf links the fleet to a passive aggregator hub over loopback.
func (f *tracedFleet) attachLeaf() error {
	hub, err := fleetnet.NewHub(fleetnet.HubConfig{State: core.NewSyncState(0), Target: f.w.Target, Models: f.cfg.Models})
	if err != nil {
		return err
	}
	if err := hub.ListenAndServe("127.0.0.1:0"); err != nil {
		return err
	}
	f.hub = hub
	f.leaf, err = fleetnet.NewLeaf(fleetnet.LeafConfig{Fleet: f.fleet, Addr: hub.Addr(), Target: f.w.Target, Models: f.cfg.Models})
	return err
}

// hook records the gap since the worker's previous window as a core.window
// span. The gap is the whole cost of the window: its execs plus, on a
// multi-worker fleet, the merge with the shared state.
func (f *tracedFleet) hook(wi core.WindowInfo) {
	now := time.Now()
	i := wi.Worker
	gap := f.tr.record("core.window", f.root, f.lastAt[i], now)
	if n := wi.WorkerExecs - f.lastExecs[i]; n > 0 {
		f.windowUs[i] = append(f.windowUs[i], float64(gap.Nanoseconds())/1e3)
		f.stepNs[i] = append(f.stepNs[i], float64(gap.Nanoseconds())/float64(n))
	}
	f.lastAt[i], f.lastExecs[i] = now, wi.WorkerExecs
}

// drive advances the fleet to an absolute exec count. Windows are timed from
// the moment Drive is entered, so time spent between slices is not theirs.
func (f *tracedFleet) drive(execs int) {
	now := time.Now()
	for i := range f.lastAt {
		f.lastAt[i] = now
	}
	f.fleet.Drive(nil, core.Budget{Execs: execs}, f.hook)
}

// checkpointNow is Campaign.Checkpoint's body — snapshot every layer, then
// an atomic durable write — timed as one checkpoint.write span.
func (f *tracedFleet) checkpointNow() error {
	var err error
	d := f.tr.time("checkpoint.write", f.root, func() {
		f.ckptData = f.fleet.Checkpoint(f.digest)
		err = checkpoint.WriteFileAtomic(filepath.Join(f.dir, "campaign.ckpt"), f.ckptData)
	})
	f.ckptMs = append(f.ckptMs, float64(d.Nanoseconds())/1e6)
	return err
}

// syncNow runs one sync window, and after the first and every emptyEvery-th
// a second one straight away. A failed window is counted, not fatal: a leaf keeps
// fuzzing through a lost link.
func (f *tracedFleet) syncNow() {
	var err error
	d := f.tr.time("fleetnet.sync", f.root, func() { err = f.leaf.Sync() })
	f.syncs++
	if err != nil {
		f.syncErrs++
		return
	}
	f.syncUs = append(f.syncUs, float64(d.Nanoseconds())/1e3)
	if f.syncs%emptyEvery == 1 {
		d := f.tr.time("fleetnet.sync_empty", f.root, func() { err = f.leaf.Sync() })
		if err != nil {
			f.syncErrs++
			return
		}
		f.emptyUs = append(f.emptyUs, float64(d.Nanoseconds())/1e3)
	}
}

// run drives the workload's own campaign to its budget the way the session
// API does: straight through, or in slices that end at the next checkpoint
// or sync boundary with the service call between them and once more at the
// end.
func (f *tracedFleet) run() error {
	if f.w.Leaf {
		if err := f.attachLeaf(); err != nil {
			return err
		}
	}
	f.root = f.tr.open("run", 0)
	defer f.tr.close(f.root)
	for f.fleet.Execs() < f.w.Budget {
		next := f.w.Budget
		switch {
		case f.w.Ckpt:
			next = min(next, (f.fleet.Execs()/ckptEvery+1)*ckptEvery)
		case f.w.Leaf:
			next = min(next, f.fleet.Execs()+syncEvery)
		}
		f.drive(next)
		if f.w.Ckpt && f.fleet.Execs() < f.w.Budget {
			if err := f.checkpointNow(); err != nil {
				return err
			}
		}
		if f.w.Leaf && f.fleet.Execs() < f.w.Budget {
			f.syncNow()
		}
	}
	if f.w.Ckpt {
		return f.checkpointNow()
	}
	if f.w.Leaf {
		f.syncNow()
	}
	return nil
}

// probeServices times the checkpoint and sync layers on the campaign's own
// end state, on workloads whose loop does not call them: a few more slices
// at the default cadences with the service call after each. It then restores
// the last checkpoint into a fresh fleet, which must come back identical.
func (f *tracedFleet) probeServices(ckptSlices, syncSlices int) error {
	root := f.tr.open("probe", 0)
	defer f.tr.close(root)
	f.root = root
	if !f.w.Ckpt {
		for i := 0; i < ckptSlices; i++ {
			f.drive(f.fleet.Execs() + ckptEvery)
			if err := f.checkpointNow(); err != nil {
				return err
			}
		}
	}
	// The fleet a checkpoint restores into is built like the one that wrote
	// it, on target instances of its own.
	cfg, pcfg, err := f.w.fleetConfig(f.cfg.Seed)
	if err != nil {
		return err
	}
	fresh, err := core.NewFleet(cfg, pcfg)
	if err != nil {
		return err
	}
	d := f.tr.time("checkpoint.restore", root, func() { err = fresh.RestoreCheckpoint(f.ckptData, f.digest) })
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	f.restoreMs = float64(d.Nanoseconds()) / 1e6
	if got, want := fresh.Stats(), f.fleet.Stats(); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("restored stats %+v differ from the checkpointed fleet's %+v", got, want)
	}
	if !f.w.Leaf {
		if err := f.attachLeaf(); err != nil {
			return err
		}
		for i := 0; i < syncSlices; i++ {
			f.drive(f.fleet.Execs() + syncEvery)
			f.syncNow()
		}
	}
	return nil
}

// engineStage marks the replayed stages that make up one exec in the engine.
// Their sum is what core.self_share compares with the engine's own cost per
// exec; the other stages only probe a layer.
var engineStage = map[string]bool{
	"datamodel.generate": true, "mutator.mutate": true, "datamodel.fixup": true, "datamodel.serialize": true,
	"executor.run+coverage.merge": true, "datamodel.crack": true, "corpus.add": true,
}

const replayBatch = 256

// sink receives the results of calls timed only for their cost, so the
// compiler cannot drop them.
var sink uint64

// replay is the outcome of the stage replay: per stage, one sample a batch
// of the stage's time divided by its calls.
type replay struct {
	perCall      map[string][]float64
	edgesPerExec []float64
	sumNs        float64 // engine stages, per replayed exec
}

// stageReplay walks the stages of iters execs in the engine's order using
// only the layers' exported functions, stage-major in batches: each stage
// runs over the whole batch inside one span, because a clock read costs as
// much as some of the calls it would time.
//
// Coverage merge needs the tracer of the exec just run, so it cannot be a
// stage of its own. Two executors over two instances of the target see the
// same packets: one is timed running them, the other running and merging;
// the merge is the difference.
func stageReplay(w workload, seed uint64, iters int, tr *tracer) (*replay, error) {
	tgtA, err := targets.New(w.Target)
	if err != nil {
		return nil, err
	}
	tgtB, _ := targets.New(w.Target)
	models := tgtA.Models()
	for _, m := range models {
		if err := m.Validate(); err != nil {
			return nil, err
		}
	}
	xa, xb := executor.NewInProc(tgtA), executor.NewInProc(tgtB)
	virgin := coverage.NewVirgin()
	corp := corpus.New(0)
	suite := mutator.Suite()
	r := rng.New(seed)
	seq := replaySequence(tgtA, models)
	kib := r.Bytes(1024)

	out := &replay{perCall: map[string][]float64{}}
	root := tr.open("replay", 0)
	defer tr.close(root)

	var arena datamodel.Arena
	var (
		ms       = make([]*datamodel.Model, replayBatch)
		insts    = make([]*datamodel.Node, replayBatch)
		pkts     = make([][]byte, replayBatch)
		leaves   []*datamodel.Node
		valuable []int
		cracked  []*datamodel.Node
		crackedM []string
		scratch  []corpus.Puzzle
		encoded  []byte
		total    time.Duration
	)
	for done := 0; done < iters; done += replayBatch {
		arena.Reset()
		batch := tr.open("replay.batch", root)
		stage := func(name string, calls int, fn func()) {
			d := tr.time(name, batch, fn)
			if calls > 0 {
				out.perCall[name] = append(out.perCall[name], float64(d.Nanoseconds())/float64(calls))
			}
			if engineStage[name] {
				total += d
			}
		}
		for i := range ms {
			ms[i] = models[r.Intn(len(models))]
		}
		stage("datamodel.generate", replayBatch, func() {
			for i, m := range ms {
				insts[i] = m.GenerateInto(&arena)
			}
		})
		stage("mutator.mutate", replayBatch, func() {
			for _, inst := range insts {
				leaves = inst.Leaves(leaves[:0])
				leaf := rng.Pick(r, leaves)
				if mut := mutator.Pick(r, suite, leaf.Chunk); mut != nil {
					leaf.Data = mut.Mutate(r, leaf.Chunk, leaf.Data, &arena)
				}
			}
		})
		stage("datamodel.fixup", replayBatch, func() {
			for i, m := range ms {
				m.ApplyFixups(insts[i])
			}
		})
		stage("datamodel.serialize", replayBatch, func() {
			for i, inst := range insts {
				pkts[i] = inst.AppendTo(arena.Buffer(inst.Len()))
			}
		})
		stage("executor.run", replayBatch, func() {
			for _, p := range pkts {
				xa.Run(p)
			}
		})
		out.edgesPerExec = append(out.edgesPerExec, float64(xa.Tracer().CountEdges()))
		valuable = valuable[:0]
		stage("executor.run+coverage.merge", replayBatch, func() {
			for i, p := range pkts {
				xb.Run(p)
				if virgin.MergeTracer(xb.Tracer()) {
					valuable = append(valuable, i)
				}
			}
		})
		cracked, crackedM = cracked[:0], crackedM[:0]
		stage("datamodel.crack", len(valuable), func() {
			for _, i := range valuable {
				for _, m := range models {
					if n, err := m.Crack(pkts[i]); err == nil {
						cracked = append(cracked, n)
						crackedM = append(crackedM, m.Name)
					}
				}
			}
		})
		adds := 0
		for _, n := range cracked {
			adds += len(n.Leaves(leaves[:0]))
		}
		stage("corpus.add", adds, func() {
			for i, n := range cracked {
				for _, leaf := range n.Leaves(leaves[:0]) {
					corp.AddNode(crackedM[i], leaf)
				}
			}
		})
		leaves = insts[0].Leaves(leaves[:0])
		stage("corpus.donors", len(leaves), func() {
			for _, leaf := range leaves {
				var donors []corpus.Puzzle
				donors, scratch = corp.CrossModelDonorsInto(scratch, leaf.Chunk, ms[0].Name)
				sink += uint64(len(donors))
			}
		})
		stage("datamodel.crc16", 16, func() {
			for i := 0; i < 8; i++ {
				sink += datamodel.Checksum(datamodel.CRC16Modbus, kib)
				sink += datamodel.Checksum(datamodel.CRC16DNP, kib)
			}
		})
		var codecErr error
		stage("session.codec", 16, func() {
			for i := 0; i < 16; i++ {
				encoded = session.Encode(encoded[:0], seq)
				if _, err := session.Decode(encoded); err != nil {
					codecErr = err
				}
			}
		})
		tr.close(batch)
		if codecErr != nil {
			return nil, fmt.Errorf("replay: sequence codec round trip: %w", codecErr)
		}
		// A packet whose fixups were applied is a legal instance of its
		// model: it must crack, and Crack verifies every fixup.
		for i, m := range ms {
			if !m.VerifyFixups(insts[i]) {
				return nil, fmt.Errorf("replay: model %s: fixups do not verify on the instance they were applied to", m.Name)
			}
		}
		out.sumNs = float64(total.Nanoseconds()) / float64(done+replayBatch)
	}
	return out, nil
}

// replaySequence is a WalkCap-length message sequence for the codec stage:
// a walk of the target's own state machine, or for a target without one,
// its models' default packets in turn.
func replaySequence(tgt targets.Target, models []*datamodel.Model) session.Sequence {
	byName := map[string]*datamodel.Model{}
	for _, m := range models {
		byName[m.Name] = m
	}
	var seq session.Sequence
	if st, ok := tgt.(targets.SessionTarget); ok {
		sm := st.StateModel()
		state := sm.Initial
		for len(seq.Steps) < sm.WalkCap() && len(sm.States[state].Actions) > 0 {
			ai := len(seq.Steps) % len(sm.States[state].Actions)
			a := sm.States[state].Actions[ai]
			seq.Steps = append(seq.Steps, session.Step{State: state, Action: ai, Data: byName[a.Model].Generate().Bytes()})
			state = a.Next
		}
		return seq
	}
	for i := 0; i < session.DefaultMaxSteps; i++ {
		seq.Steps = append(seq.Steps, session.Step{Action: i % len(models), Data: models[i%len(models)].Generate().Bytes()})
	}
	return seq
}
