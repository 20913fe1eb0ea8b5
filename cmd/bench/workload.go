package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"time"

	"repro/internal/mem"
	"repro/peachstar"
)

// workload is one closed-loop campaign shape: a fresh Peach* campaign on one
// target, run to a fixed exec budget. The names are fixed; later issues cite
// them.
type workload struct {
	Name     string
	Target   string
	Budget   int // execs per rep (fleet total)
	Workers  int
	Sessions bool
	Ckpt     bool // RunConfig.CheckpointPath set, default cadence
	Leaf     bool // WithLeaf to a RelayOnly hub over loopback, default cadence
	// Goal is the edge count t_goal_s times; Floor the least final edge
	// count a rep may end with.
	Goal, Floor int
	// Serial workloads are a pure function of the campaign seed, so two reps
	// with one seed must end with identical counters.
	Serial bool
	// Smoke marks a workload shrunk by smoke.
	Smoke bool
	Why   string
}

var workloads = []workload{
	{Name: "modbus_serial", Target: "libmodbus", Budget: 1_000_000, Workers: 1, Goal: 170, Floor: 175, Serial: true,
		Why: "saturated steady state of small CRC-framed packets: fixups ~30%, two bitwise CRC16s ~21%; a CRC or fixup-plan change shows here"},
	{Name: "mms_serial", Target: "libiec61850", Budget: 200_000, Workers: 1, Goal: 170, Floor: 200, Serial: true,
		Why: "discovery regime on the deepest models: ~77% of CPU is relation fixup and CRC16 does nothing, so a CRC change predicts no move"},
	{Name: "modbus_fleet2", Target: "libmodbus", Budget: 2_000_000, Workers: 2, Goal: 170, Floor: 175,
		Why: "two workers at modbus_serial's per-worker budget: the only workload with merge windows and the SyncState mutex"},
	{Name: "iec104_session", Target: "IEC104", Budget: 2_000_000, Workers: 1, Sessions: true, Goal: 56, Floor: 70, Serial: true,
		Why: "stateful sequences of short packets: coverage- and executor-bound, fixups ~22%; bypasses datamodel work, exercises session code"},
	{Name: "modbus_ckpt", Target: "libmodbus", Budget: 1_000_000, Workers: 1, Ckpt: true, Goal: 170, Floor: 175, Serial: true,
		Why: "modbus_serial plus a durable checkpoint every 4096 execs: snapshot codecs and fsync beside the hot loop, ~20% of wall"},
	{Name: "modbus_leaf", Target: "libmodbus", Budget: 1_000_000, Workers: 1, Leaf: true, Goal: 170, Floor: 175,
		Why: "modbus_serial syncing to a passive hub over loopback every 1024 execs: the fleetnet v3 wire under a live campaign"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// refuse says why a workload cannot give a valid number on a host with this
// many CPUs: workers that share a CPU measure the scheduler, not the fleet.
func (w workload) refuse(numCPU int) error {
	if w.Workers > numCPU {
		return fmt.Errorf("%s needs %d CPUs, this host has %d: refusing to record a scaling number", w.Name, w.Workers, numCPU)
	}
	return nil
}

// smoke shrinks a workload to a hundredth of its budget for tests. Coverage
// at that size is far below the goal and floor, so both drop to one edge:
// every code path still runs, the two coverage thresholds do not.
func (w workload) smoke() workload {
	w.Budget /= 100
	w.Goal, w.Floor = 1, 1
	w.Smoke = true
	return w
}

// tmpRoot holds every file the benchmark writes while it runs (checkpoint
// directories, and by default the results). It is relative to the working
// directory so a run stays inside its checkout.
const tmpRoot = ".bench_build"

// rep is the outcome of one campaign.
type rep struct {
	Setup time.Duration // NewTarget + NewCampaign (+ hub, + temp dir)
	Wall  time.Duration // Campaign.Start to Run.Wait returning
	TGoal time.Duration // Start to the first NewCoverageEvent at the goal; 0 = never
	Stats peachstar.Stats

	CkptWrites []time.Duration // CheckpointEvent.Elapsed
	CkptBytes  int
	SyncWins   []time.Duration // SyncWindowEvent.Elapsed

	Mallocs, AllocBytes uint64 // runtime.MemStats deltas over the rep
	GCs                 uint32
	GCPause             time.Duration

	Err error // first failed check, nil when the rep is good
}

// fingerprint is what two reps of a serial workload with one seed must share.
type fingerprint struct {
	Execs, Iterations, Paths, Edges, UniqueCrashes, CorpusPuzzles, Sequences int
}

func fingerprintOf(s peachstar.Stats) fingerprint {
	return fingerprint{s.Execs, s.Iterations, s.Paths, s.Edges, s.UniqueCrashes, s.CorpusPuzzles, s.Sequences}
}

// campaign is one set-up rep: the campaign, its run configuration and what
// must be torn down afterwards.
type campaign struct {
	seed    uint64
	c       *peachstar.Campaign
	cfg     peachstar.RunConfig
	hub     *peachstar.SyncServer
	hubRun  *peachstar.Run
	ckptDir string
}

func (w workload) options(seed uint64) (peachstar.Options, error) {
	tgt, err := peachstar.NewTarget(w.Target)
	if err != nil {
		return peachstar.Options{}, err
	}
	return peachstar.Options{
		Target:   tgt,
		Strategy: peachstar.PeachStar,
		Seed:     seed,
		Workers:  w.Workers,
		Sessions: w.Sessions,
	}, nil
}

// setUp does everything a rep needs before its first exec.
func (w workload) setUp(seed uint64) (*campaign, error) {
	// The event buffer holds every event a rep can emit, so the drop-oldest
	// stream never loses the checkpoint and sync events the checks count.
	s := &campaign{seed: seed, cfg: peachstar.RunConfig{Execs: w.Budget, StatsEvery: -1, EventBuffer: 4096}}
	opts, err := w.options(seed)
	if err != nil {
		return nil, err
	}
	if w.Leaf {
		hubOpts, err := w.options(seed)
		if err != nil {
			return nil, err
		}
		hub, err := peachstar.NewCampaign(hubOpts)
		if err != nil {
			return nil, err
		}
		if s.hub, err = hub.ServeSync("127.0.0.1:0"); err != nil {
			return nil, err
		}
		s.hubRun, err = hub.Start(context.Background(), peachstar.RunConfig{
			RelayOnly: true,
			Attach:    []peachstar.Attachment{s.hub.Attachment()},
		})
		if err != nil {
			s.tearDown()
			return nil, err
		}
		opts.SeedStream = 1
		s.cfg.Attach = []peachstar.Attachment{peachstar.WithLeaf(s.hub.Addr())}
	}
	if w.Ckpt {
		if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
			return nil, err
		}
		if s.ckptDir, err = os.MkdirTemp(tmpRoot, "ckpt-"); err != nil {
			return nil, err
		}
		s.cfg.CheckpointPath = filepath.Join(s.ckptDir, "campaign.ckpt")
	}
	if s.c, err = peachstar.NewCampaign(opts); err != nil {
		s.tearDown()
		return nil, err
	}
	return s, nil
}

func (s *campaign) tearDown() {
	if s.hubRun != nil {
		s.hubRun.Stop()
		s.hubRun.Wait()
	}
	if s.hub != nil {
		s.hub.Close()
	}
	if s.ckptDir != "" {
		os.RemoveAll(s.ckptDir)
	}
}

// runRep runs one untraced campaign and checks what it produced. With
// stopAtGoal the campaign is stopped once coverage reaches the goal: such a
// rep only times the goal and is not held to the full-budget checks.
func (w workload) runRep(seed uint64, stopAtGoal bool) (r rep) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	t0 := time.Now()
	s, err := w.setUp(seed)
	r.Setup = time.Since(t0)
	if err != nil {
		r.Err = fmt.Errorf("set-up: %w", err)
		return r
	}
	defer s.tearDown()

	var eventErr error
	t1 := time.Now()
	run, err := s.c.Start(context.Background(), s.cfg)
	if err != nil {
		r.Err = fmt.Errorf("start: %w", err)
		return r
	}
	for ev := range run.Events() {
		switch e := ev.(type) {
		case peachstar.NewCoverageEvent:
			if r.TGoal == 0 && e.Edges >= w.Goal {
				r.TGoal = time.Since(t1)
				if stopAtGoal {
					run.Stop()
				}
			}
		case peachstar.CheckpointEvent:
			r.CkptWrites = append(r.CkptWrites, e.Elapsed)
			r.CkptBytes = e.Bytes
			if e.Err != nil && eventErr == nil {
				eventErr = fmt.Errorf("checkpoint at %d execs: %w", e.Execs, e.Err)
			}
		case peachstar.SyncWindowEvent:
			r.SyncWins = append(r.SyncWins, e.Elapsed)
			if e.Err != nil && eventErr == nil {
				eventErr = fmt.Errorf("sync window at %d execs: %w", e.Execs, e.Err)
			}
		}
	}
	waitErr := run.Wait()
	r.Wall = time.Since(t1)

	runtime.ReadMemStats(&m1)
	r.Mallocs = m1.Mallocs - m0.Mallocs
	r.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	r.GCs = m1.NumGC - m0.NumGC
	r.GCPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	r.Stats = s.c.Stats()

	switch {
	case waitErr != nil:
		r.Err = fmt.Errorf("Run.Wait: %w", waitErr)
	case eventErr != nil:
		r.Err = eventErr
	case r.TGoal == 0:
		r.Err = fmt.Errorf("never reached the goal of %d edges (ended with %d)", w.Goal, r.Stats.Edges)
	case !stopAtGoal:
		r.Err = w.check(s, r)
	}
	return r
}

// check holds a full-budget rep to the workload's output checks.
func (w workload) check(s *campaign, r rep) error {
	st := r.Stats
	if st.Execs < w.Budget || st.Execs > w.Budget+64*w.Workers {
		return fmt.Errorf("execs %d outside [%d, %d]", st.Execs, w.Budget, w.Budget+64*w.Workers)
	}
	if st.Edges < w.Floor {
		return fmt.Errorf("edges %d below the floor of %d", st.Edges, w.Floor)
	}
	if w.Target == "libmodbus" {
		// The two faults planted in the libmodbus target (Table I).
		want := []string{string(mem.HeapUseAfterFree), string(mem.SEGV)}
		var got []string
		for _, c := range s.c.Crashes() {
			got = append(got, string(c.Kind))
		}
		sort.Strings(got)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("crash bank holds %v, want exactly %v", got, want)
		}
	}
	if w.Sessions {
		if n := len(st.StateCoverage); n == 0 || st.StatesReached != n {
			return fmt.Errorf("reached %d of %d protocol states", st.StatesReached, n)
		}
	}
	if w.Ckpt {
		if n, min := len(r.CkptWrites), w.Budget/peachstar.DefaultCheckpointEvery; n < min {
			return fmt.Errorf("%d checkpoints, want at least %d", n, min)
		}
		// A warm restart is built with the same options, seed included.
		opts, err := w.options(s.seed)
		if err != nil {
			return err
		}
		fresh, err := peachstar.NewCampaign(opts)
		if err != nil {
			return err
		}
		if err := fresh.RestoreCheckpoint(s.cfg.CheckpointPath); err != nil {
			return fmt.Errorf("restore final checkpoint: %w", err)
		}
		if got := fresh.Stats(); !reflect.DeepEqual(got, st) {
			return fmt.Errorf("restored stats %+v differ from finished campaign's %+v", got, st)
		}
	}
	if w.Leaf {
		if len(r.SyncWins) == 0 {
			return fmt.Errorf("no sync windows ran")
		}
		if execs, _, _ := s.hub.RemoteStats(); execs != st.Execs {
			return fmt.Errorf("hub saw %d remote execs, leaf ran %d", execs, st.Execs)
		}
	}
	return nil
}
