// Command peachstar fuzzes one of the built-in ICS protocol targets with
// either the baseline Peach strategy or the full Peach* strategy, printing
// live progress from the campaign's event stream and any unique crashes
// found. It can also take part in a distributed fleet: -serve makes this
// node a sync hub, -connect makes it a leaf of one, and -mesh makes it a
// hub-less mesh node that both accepts peers and uplinks to them (see the
// README's "Distributed campaigns" and "Mesh campaigns" sections).
//
// The command is built on the session API: one Campaign.Start call with
// the budget and the attachments, events consumed as they stream, SIGINT
// mapped to Run.Stop for a graceful finish (workers stop at the next
// merge window, attachments flush, final stats print; a second SIGINT
// aborts hard).
//
// Usage:
//
//	peachstar -target libmodbus -strategy peachstar -execs 50000 -seed 1
//	peachstar -target libmodbus -execs 200000 -workers 4 -stats-every 20000
//	peachstar -target libmodbus -serve :7712 -execs 0            # hub (aggregator only)
//	peachstar -target libmodbus -connect host:7712 -seed-stream 1 -execs 100000
//	peachstar -target libmodbus -mesh :7712 -advertise hostA:7712 -execs 100000            # mesh seed node
//	peachstar -target libmodbus -mesh :7712 -advertise hostB:7712 -peers hostA:7712 \
//	          -seed-stream 1 -execs 100000                                                 # joins via hostA
//	peachstar -target libmodbus -exec-cmd "./myserver -listen {addr}" \
//	          -exec-addr 127.0.0.1:15502 -execs 100000    # fuzz a real spawned server
//	peachstar -list
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/peachstar"
)

func main() {
	var (
		target     = flag.String("target", "libmodbus", "protocol target to fuzz")
		strategy   = flag.String("strategy", "peachstar", "peach | peachstar")
		execs      = flag.Int("execs", 50000, "target executions to run (0 with -serve/-mesh: relay only)")
		seed       = flag.Uint64("seed", 1, "campaign seed (reproducible)")
		duration   = flag.Duration("duration", 0, "wall-clock budget (overrides -execs when set)")
		report     = flag.Int("report", 10, "number of progress reports when -stats-every is 0")
		statsEvery = flag.Int("stats-every", 0, "executions between live stats lines (0: derive from -report)")
		workers    = flag.Int("workers", 1, "parallel worker engines sharing the exec budget")
		serve      = flag.String("serve", "", "serve fleet sync to remote leaves on this host:port (hub node)")
		connect    = flag.String("connect", "", "sync with the fleet hub at this host:port (leaf node)")
		mesh       = flag.String("mesh", "", "join a hub-less mesh fleet, accepting peers on this host:port (mesh node)")
		peers      = flag.String("peers", "", "comma-separated bootstrap peer addresses (with -mesh; one live address is enough)")
		advertise  = flag.String("advertise", "", "externally dialable address peers should reach this node at (with -mesh; default: the bound -mesh address)")
		syncEvery  = flag.Int("sync-every", 1024, "executions between fleet syncs (with -serve, -connect or -mesh)")
		seedStream = flag.Int("seed-stream", 0, "RNG stream offset for this node's workers; give each leaf a disjoint range")
		adaptive   = flag.Bool("adaptive", false, "enable the adaptive scheduler (learned mutator weights, rarity-weighted seeds, corpus distillation)")
		sessions   = flag.Bool("sessions", false, "fuzz stateful message sequences through the target's session state machine instead of independent packets (target must publish a state model)")
		ckptPath   = flag.String("checkpoint", "", "write a durable campaign checkpoint to this file during the run (atomic replace each time; warm-restart with -resume)")
		ckptEvery  = flag.Int("checkpoint-every", 0, "executions between durable checkpoints (with -checkpoint; 0: default)")
		resume     = flag.Bool("resume", false, "warm-restart: restore campaign state from the -checkpoint file before fuzzing (missing file: cold start)")
		execCmd    = flag.String("exec-cmd", "", "spawn this command as the real fuzz target and drive it over the network ({addr} expands to -exec-addr); packets go to the process instead of the in-process sandbox")
		execAddr   = flag.String("exec-addr", "", "host:port the spawned target serves on (required with -exec-cmd)")
		execNet    = flag.String("exec-net", "tcp", "transport to the spawned target: tcp | udp (with -exec-cmd)")
		execTO     = flag.Duration("exec-timeout", 200*time.Millisecond, "watchdog budget per exchange with the spawned target; an unresponsive target is recorded as a hang and restarted (with -exec-cmd)")
		list       = flag.Bool("list", false, "list available targets and exit")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(peachstar.TargetNames(), "\n"))
		return
	}
	if *serve != "" && *connect != "" {
		fmt.Fprintln(os.Stderr, "a node cannot both -serve and -connect (for relay topologies, use -mesh)")
		os.Exit(2)
	}
	if *mesh != "" && (*serve != "" || *connect != "") {
		fmt.Fprintln(os.Stderr, "-mesh already accepts and dials peers; it cannot be combined with -serve or -connect")
		os.Exit(2)
	}
	if *mesh == "" && (*peers != "" || *advertise != "") {
		fmt.Fprintln(os.Stderr, "-peers and -advertise only apply to -mesh nodes")
		os.Exit(2)
	}
	if *ckptPath == "" && (*ckptEvery != 0 || *resume) {
		fmt.Fprintln(os.Stderr, "-checkpoint-every and -resume need -checkpoint (the checkpoint file)")
		os.Exit(2)
	}
	var backend peachstar.ExecBackend
	if *execCmd != "" {
		if *execAddr == "" {
			fmt.Fprintln(os.Stderr, "-exec-cmd needs -exec-addr (where the spawned target serves)")
			os.Exit(2)
		}
		if *workers != 1 {
			fmt.Fprintln(os.Stderr, "a process-backed campaign supervises one target: -exec-cmd requires -workers 1")
			os.Exit(2)
		}
		backend = peachstar.WithProcOptions(strings.Fields(*execCmd), *execAddr, peachstar.ProcOptions{
			Net:          *execNet,
			ExecTimeout:  *execTO,
			TargetStderr: os.Stderr,
		})
	} else if *execAddr != "" {
		fmt.Fprintln(os.Stderr, "-exec-addr only applies with -exec-cmd")
		os.Exit(2)
	}

	var strat peachstar.Strategy
	switch strings.ToLower(*strategy) {
	case "peach":
		strat = peachstar.Peach
	case "peachstar", "peach*":
		strat = peachstar.PeachStar
	default:
		fmt.Fprintf(os.Stderr, "unknown strategy %q (want peach or peachstar)\n", *strategy)
		os.Exit(2)
	}

	tgt, err := peachstar.NewTarget(*target)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	campaign, err := peachstar.NewCampaign(peachstar.Options{
		Target:     tgt,
		Strategy:   strat,
		Seed:       *seed,
		Workers:    *workers,
		SeedStream: *seedStream,
		Adaptive:   *adaptive,
		Sessions:   *sessions,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *resume {
		switch err := campaign.RestoreCheckpoint(*ckptPath); {
		case errors.Is(err, os.ErrNotExist):
			// Nothing to resume yet — the first incarnation of a campaign
			// run under a supervisor that always passes -resume.
			fmt.Printf("no checkpoint at %s yet; starting cold\n", *ckptPath)
		case err != nil:
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		default:
			s := campaign.Stats()
			fmt.Printf("resumed from %s: %d execs, %d edges, %d crashes, corpus %d puzzles\n",
				*ckptPath, s.Execs, s.Edges, s.UniqueCrashes, s.CorpusPuzzles)
		}
	}

	// The sync node — hub, leaf or mesh — is a campaign-level handle: it
	// spans the fuzzing session and the serve phase after it, and feeds
	// its peer and fleet figures into the progress lines.
	var node *peachstar.SyncNode
	var banner string
	var peerList []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, p)
		}
	}
	switch {
	case *serve != "":
		if node, err = campaign.ServeSync(*serve); err == nil {
			banner = fmt.Sprintf("serving fleet sync on %s (publishing every %d execs)", node.Addr(), *syncEvery)
		}
	case *connect != "":
		node, err = campaign.DialSync(*connect)
		banner = fmt.Sprintf("syncing with fleet hub at %s (every %d execs)", *connect, *syncEvery)
	case *mesh != "":
		if node, err = campaign.JoinMesh(peachstar.MeshOptions{Listen: *mesh, Peers: peerList, Advertise: *advertise}); err == nil {
			banner = fmt.Sprintf("mesh node on %s (%d bootstrap peers, syncing every %d execs)", node.Addr(), len(peerList), *syncEvery)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var attach []peachstar.Attachment
	if node != nil {
		defer node.Close()
		attach = append(attach, node.Attachment())
		fmt.Println(banner)
	}

	// SIGINT → graceful Stop of whichever session is live — and no
	// further phases: an interrupt during the fuzzing phase of a hub or
	// mesh node must fall through to the final stats, not into the
	// serve-forever phase. A second SIGINT exits hard. The mutex makes
	// "interrupted" and "which run is live" one atomic state, so a
	// signal can never slip between phases unobserved.
	var (
		mu          sync.Mutex
		live        *peachstar.Run
		interrupted bool
	)
	// beginPhase installs r as the live session unless an interrupt
	// already landed, in which case the phase is skipped (r is stopped).
	beginPhase := func(r *peachstar.Run) bool {
		mu.Lock()
		defer mu.Unlock()
		if interrupted {
			r.Stop()
			return false
		}
		live = r
		return true
	}
	keepServing := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return !interrupted
	}
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "\ninterrupt: stopping at the next merge window (interrupt again to abort)")
		mu.Lock()
		interrupted = true
		if live != nil {
			live.Stop()
		}
		mu.Unlock()
		<-sig
		os.Exit(130)
	}()

	start := time.Now()
	fuzzing := *execs > 0 || *duration > 0
	if fuzzing {
		cfg := peachstar.RunConfig{
			Execs:           *execs,
			Duration:        *duration,
			SyncEvery:       *syncEvery,
			StatsEvery:      *statsEvery,
			Attach:          attach,
			Exec:            backend,
			CheckpointPath:  *ckptPath,
			CheckpointEvery: *ckptEvery,
		}
		if backend != nil {
			fmt.Printf("spawning target: %s (%s %s, watchdog %s)\n", *execCmd, *execNet, *execAddr, *execTO)
		}
		// Derive the stats cadence from the budget actually in force:
		// exec-budget runs report every execs/report executions; duration
		// runs report every duration/report of wall clock (a ticker below
		// — the exec total is unknowable up front), unless -stats-every
		// pins an execution cadence explicitly.
		var reportTick time.Duration
		if *duration > 0 {
			cfg.Execs = 0 // wall clock overrides the exec budget
			if *statsEvery == 0 {
				cfg.StatsEvery = -1 // no exec-based stats; ticker instead
				if *report > 0 {
					reportTick = *duration / time.Duration(*report)
				}
				if reportTick <= 0 {
					reportTick = *duration
				}
			}
		} else if *statsEvery == 0 {
			if *report > 0 {
				cfg.StatsEvery = *execs / *report
			}
			if cfg.StatsEvery < 1 {
				cfg.StatsEvery = peachstar.DefaultStatsEvery
			}
		}
		fmt.Printf("fuzzing %s with %s (seed %d, stream %d, %d workers)\n",
			*target, strat, *seed, *seedStream, campaign.Workers())
		r, err := campaign.Start(context.Background(), cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		beginPhase(r)
		if reportTick > 0 {
			go func() {
				t := time.NewTicker(reportTick)
				defer t.Stop()
				for {
					select {
					case <-r.Done():
						return
					case <-t.C:
						printStatsLine(r.Snapshot(), node, start)
					}
				}
			}()
		}
		printEvents(r, node, start)
		if err := r.Wait(); err != nil {
			fmt.Fprintf(os.Stderr, "session ended with: %v\n", err)
		}
	}

	if node != nil && node.Addr() != "" && keepServing() {
		// Hub and mesh nodes outlive their own budget: keep serving (and,
		// for a mesh node, relaying between peers) until interrupted. A
		// node with -execs 0 is a pure relay.
		fmt.Println("local budget spent; serving fleet sync until interrupted (Ctrl-C)")
		r, err := campaign.Start(context.Background(), peachstar.RunConfig{
			RelayOnly:       true,
			Attach:          attach,
			CheckpointPath:  *ckptPath,
			CheckpointEvery: *ckptEvery,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if beginPhase(r) {
			printEvents(r, node, start)
		}
		if err := r.Wait(); err != nil {
			fmt.Fprintf(os.Stderr, "serve session ended with: %v\n", err)
		}
	}

	s := campaign.Stats()
	fmt.Printf("\nfinished: %d execs, %d paths, %d edges, %d unique crashes, %d hangs, corpus %d puzzles\n",
		s.Execs, s.Paths, s.Edges, s.UniqueCrashes, s.Hangs, s.CorpusPuzzles)
	if backend != nil {
		fmt.Printf("target restarted %d times during the campaign\n", s.TargetRestarts)
	}
	if len(s.StateCoverage) > 0 {
		fmt.Printf("sessions: %d sequences sent, %d of %d states reached\n",
			s.Sequences, s.StatesReached, len(s.StateCoverage))
		for _, sc := range s.StateCoverage {
			fmt.Printf("  state %-16s %9d sent  %5d edges\n", sc.State, sc.Sent, sc.Edges)
		}
	}
	if len(s.MutatorStats) > 0 {
		fmt.Printf("scheduler: %d distillations; operator yields:\n", s.Distills)
		for _, ms := range s.MutatorStats {
			fmt.Printf("  %-24s %9d trials  %6d hits\n", ms.Name, ms.Trials, ms.Hits)
		}
	}
	for i, c := range campaign.Crashes() {
		fmt.Printf("crash %d: %s at %s (first at exec %d, seen %d times)\n  packet: %x\n",
			i+1, c.Kind, c.Site, c.FirstExec, c.Count, c.Example)
		if len(c.Sequence) > 0 {
			fmt.Printf("  reproducer: %d-packet sequence captured\n", len(c.Sequence))
		}
	}
}

// printEvents consumes one session's event stream to the terminal: a
// progress line per StatsEvent, a discovery line per crash, sync failures
// as they happen. It returns when the session ends and the stream closes.
func printEvents(r *peachstar.Run, node *peachstar.SyncNode, start time.Time) {
	for ev := range r.Events() {
		switch ev := ev.(type) {
		case peachstar.StatsEvent:
			printStatsLine(ev.Stats, node, start)
		case peachstar.CrashEvent:
			fmt.Printf("%8.1fs  NEW CRASH: %s at %s (worker %d)\n  packet: %x\n",
				time.Since(start).Seconds(), ev.Record.Kind, ev.Record.Site, ev.Worker, ev.Record.Example)
		case peachstar.StateEvent:
			fmt.Printf("%8.1fs  reached state %q (worker %d, exec %d)\n",
				time.Since(start).Seconds(), ev.State, ev.Worker, ev.Exec)
		case peachstar.DistillEvent:
			fmt.Printf("%8.1fs  distilled corpus (worker %d): kept %d of %d seeds covering %d edges, dropped %d puzzles\n",
				time.Since(start).Seconds(), ev.Worker, ev.SeedsKept, ev.SeedsKept+ev.SeedsDropped, ev.Edges, ev.PuzzlesDropped)
		case peachstar.SyncWindowEvent:
			if ev.Err != nil {
				fmt.Fprintf(os.Stderr, "sync %s %s: %v (continuing locally)\n", ev.Attachment, ev.Addr, ev.Err)
			}
		case peachstar.CheckpointEvent:
			if ev.Err != nil {
				fmt.Fprintf(os.Stderr, "checkpoint %s: %v (continuing; next checkpoint retries)\n", ev.Path, ev.Err)
			}
		}
	}
}

// printStatsLine renders one progress line from a snapshot, with the sync
// node's figures appended when there is one: its links (connected
// uplinks, connected inbound peers, known peers), the executions inbound
// peers reported, and — once an uplink has had a reply — the fleet-wide
// figures of the node at its other end.
func printStatsLine(s peachstar.Stats, node *peachstar.SyncNode, start time.Time) {
	line := fmt.Sprintf("%8.1fs  execs %8d  paths %5d  edges %5d  crashes %3d  corpus %5d",
		time.Since(start).Seconds(), s.Execs, s.Paths, s.Edges, s.UniqueCrashes, s.CorpusPuzzles)
	if node != nil {
		uplinks, inbound, known := node.PeerStats()
		rexecs, _, _ := node.RemoteStats()
		line += fmt.Sprintf("  | links %d up/%d in of %d known, +%d remote execs", uplinks, inbound, known, rexecs)
		if fexecs, fedges, leaves, ok := node.FleetStats(); ok {
			line += fmt.Sprintf("  | fleet execs %8d  edges %5d  leaves %2d", fexecs, fedges, leaves)
		}
	}
	fmt.Println(line)
}
