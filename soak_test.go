package repro

import (
	"context"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/peachstar"
)

// soakModel mirrors the realtarget example's toy-Modbus model: the planted
// fault magic values sit among the legal sets so the campaign reaches the
// crash and hang paths within the soak budget.
func soakModel(t *testing.T) *peachstar.Model {
	m, err := peachstar.NewModel("SoakModbus",
		peachstar.Num("txn", 2, 1),
		peachstar.Num("proto", 2, 0).AsToken(),
		peachstar.Num("length", 2, 0).WithRel(peachstar.SizeOf, "tail", 0),
		peachstar.Blk("tail",
			peachstar.Num("unit", 1, 0xFF),
			peachstar.Alt("pdu",
				peachstar.Blk("read",
					peachstar.Num("fc", 1, 3).AsToken(),
					peachstar.Num("addr", 2, 0).WithLegal(0, 0x10, 0x7F),
					peachstar.Num("qty", 2, 4).WithLegal(1, 4, 0x7D),
				),
				peachstar.Blk("write",
					peachstar.Num("fc", 1, 6).AsToken(),
					peachstar.Num("addr", 2, 0x10).WithLegal(0x10, 0x40, 0xDE10, 0xDE90),
					peachstar.Num("val", 2, 0x1234),
				),
				peachstar.Blk("vendor",
					peachstar.Num("fc", 1, 0x41).AsToken(),
					peachstar.Num("op", 1, 0).WithLegal(0, 0xDE),
					peachstar.Num("arg", 1, 0),
				),
			),
		),
	)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// findPid locates the spawned toy server by scanning /proc for its unique
// temp-dir binary path — the soak's chaos arm deliberately bypasses the
// supervisor's own handle on the process.
func findPid(bin string) int {
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return 0
	}
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil || pid <= 1 {
			continue
		}
		cmdline, err := os.ReadFile(filepath.Join("/proc", e.Name(), "cmdline"))
		if err != nil {
			continue
		}
		if strings.Contains(string(cmdline), bin) {
			return pid
		}
	}
	return 0
}

// TestSoakRealTarget is the chaos gate behind `make soak` (skipped unless
// PEACHSTAR_SOAK=1): a campaign against the real spawned toy server while
// a chaos goroutine SIGKILLs the server out from under the supervisor.
// The session must spend its full budget, observe the planted crashes and
// at least one watchdog hang on top of the injected kills, and every
// captured reproducer must replay without diverging — chaos kills replay
// clean (not input-driven), the planted faults replay to their signature.
func TestSoakRealTarget(t *testing.T) {
	if os.Getenv("PEACHSTAR_SOAK") != "1" {
		t.Skip("soak run not requested; set PEACHSTAR_SOAK=1 (or use `make soak`)")
	}
	const budget = 8000

	bin := filepath.Join(t.TempDir(), "soak-modbus-server")
	if out, err := exec.Command("go", "build", "-o", bin, "./examples/realtarget/server").CombinedOutput(); err != nil {
		t.Fatalf("building toy server: %v\n%s", err, out)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	target, err := peachstar.NewTarget("libmodbus")
	if err != nil {
		t.Fatal(err)
	}
	campaign, err := peachstar.NewCampaign(peachstar.Options{
		Target:   target,
		Models:   []*peachstar.Model{soakModel(t)},
		Strategy: peachstar.PeachStar,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	backend := peachstar.WithProcOptions([]string{bin, "-listen", "{addr}"}, addr,
		peachstar.ProcOptions{ExecTimeout: 60 * time.Millisecond})

	run, err := campaign.Start(context.Background(), peachstar.RunConfig{
		Execs: budget,
		Exec:  backend,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Chaos arm: SIGKILL the live server every 300ms for as long as the
	// campaign runs. The supervisor must classify each death, restart, and
	// keep the campaign's coverage and corpus.
	var kills atomic.Int64
	chaosDone := make(chan struct{})
	go func() {
		defer close(chaosDone)
		tick := time.NewTicker(300 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-run.Done():
				return
			case <-tick.C:
				if pid := findPid(bin); pid > 1 {
					if syscall.Kill(pid, syscall.SIGKILL) == nil {
						kills.Add(1)
					}
				}
			}
		}
	}()

	crashEvents := 0
	for ev := range run.Events() {
		if _, ok := ev.(peachstar.CrashEvent); ok {
			crashEvents++
		}
	}
	if err := run.Wait(); err != nil {
		t.Fatalf("session did not survive the chaos: %v", err)
	}
	<-chaosDone

	if got := kills.Load(); got < 3 {
		t.Fatalf("chaos landed only %d kills, want ≥ 3 (campaign too short for the soak to mean anything)", got)
	}
	stats := campaign.Stats()
	if stats.Execs < budget {
		t.Fatalf("campaign spent %d of %d execs — budget lost across restarts", stats.Execs, budget)
	}
	if stats.TargetRestarts < int(kills.Load()) {
		t.Fatalf("only %d target restarts for %d chaos kills", stats.TargetRestarts, kills.Load())
	}
	if stats.Hangs < 1 {
		t.Fatal("no watchdog hang observed; the vendor-op hang path never fired")
	}
	if stats.Edges == 0 || stats.CorpusPuzzles == 0 {
		t.Fatalf("coverage/corpus lost: %d edges, %d puzzles", stats.Edges, stats.CorpusPuzzles)
	}
	if crashEvents == 0 {
		t.Fatal("no crash events streamed during the soak")
	}

	// Every reproducer must replay cleanly: the planted exit faults to
	// their exact signature, the chaos kills to a surviving target.
	matched, replayed := 0, 0
	for _, rec := range campaign.Crashes() {
		if len(rec.Sequence) == 0 {
			continue
		}
		verdict, err := peachstar.ReplayCrash(backend, rec)
		if err != nil {
			t.Fatalf("replaying %s at %s: %v", rec.Kind, rec.Site, err)
		}
		replayed++
		switch {
		case verdict.Match:
			matched++
		case verdict.Outcome == "ok":
			// Not input-driven (a chaos kill): a clean replay is the
			// correct verdict.
		default:
			t.Errorf("reproducer for %s at %s DIVERGED: replayed to %s %s at %s",
				rec.Kind, rec.Site, verdict.Outcome, verdict.Kind, verdict.Site)
		}
	}
	if replayed == 0 {
		t.Fatal("no crash record carried a reproducer sequence")
	}
	if matched == 0 {
		t.Fatal("no reproducer replayed to its original signature (planted faults should)")
	}
	t.Logf("soak: %d execs, %d chaos kills, %d restarts, %d crashes (%d replayed, %d matched), %d hangs",
		stats.Execs, kills.Load(), stats.TargetRestarts, stats.UniqueCrashes, replayed, matched, stats.Hangs)
}
