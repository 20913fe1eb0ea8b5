// Realtarget: fuzz a real server process over TCP — the execution-backend
// counterpart of the quickstart's in-process campaign. The example builds
// the bundled toy Modbus-TCP server (examples/realtarget/server), spawns
// it under the process supervisor, and fuzzes it with a data model biased
// toward the server's planted faults: crashes are detected from exit
// statuses, hangs by the watchdog, and the target is restarted each time
// with the campaign's coverage and corpus intact. Afterwards every
// captured crash is replayed from its packet-sequence reproducer against a
// fresh server instance to show the reproducers are deterministic.
//
//	go run ./examples/realtarget
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"repro/peachstar"
)

// toyModel describes the toy server's surface with the planted-fault
// magic values among the legal sets, so the generator reaches the crash
// and hang paths within a small budget.
func toyModel() *peachstar.Model {
	m, err := peachstar.NewModel("ToyModbus",
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
					// 0xDExx addresses are the planted register corruption.
					peachstar.Num("addr", 2, 0x10).WithLegal(0x10, 0x40, 0xDE10, 0xDE90),
					peachstar.Num("val", 2, 0x1234),
				),
				peachstar.Blk("vendor",
					peachstar.Num("fc", 1, 0x41).AsToken(),
					// A 0xDE operand wedges the handler (the watchdog case).
					peachstar.Num("op", 1, 0).WithLegal(0, 0xDE),
					peachstar.Num("arg", 1, 0),
				),
			),
		),
	)
	if err != nil {
		log.Fatal(err)
	}
	return m
}

// buildServer compiles the toy server into a temp dir and returns the
// binary path plus a cleanup func.
func buildServer() (string, func()) {
	dir, err := os.MkdirTemp("", "realtarget")
	if err != nil {
		log.Fatal(err)
	}
	bin := filepath.Join(dir, "toy-modbus-server")
	out, err := exec.Command("go", "build", "-o", bin, "./examples/realtarget/server").CombinedOutput()
	if err != nil {
		os.RemoveAll(dir)
		log.Fatalf("building toy server: %v\n%s", err, out)
	}
	return bin, func() { os.RemoveAll(dir) }
}

// pickAddr reserves a free loopback port for the server.
func pickAddr() string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func main() {
	execs := flag.Int("execs", 2500, "campaign execution budget")
	seed := flag.Uint64("seed", 1, "campaign seed")
	verbose := flag.Bool("v", false, "log supervisor lifecycle events")
	flag.Parse()

	bin, cleanup := buildServer()
	defer cleanup()
	addr := pickAddr()

	// The campaign is an ordinary Peach* campaign — same models-in,
	// coverage-feedback loop; only the execution seam differs. The
	// in-process target only lends its name here: with RunConfig.Exec set,
	// every generated packet goes to the spawned server instead.
	target, err := peachstar.NewTarget("libmodbus")
	if err != nil {
		log.Fatal(err)
	}
	campaign, err := peachstar.NewCampaign(peachstar.Options{
		Target:   target,
		Models:   []*peachstar.Model{toyModel()},
		Strategy: peachstar.PeachStar,
		Seed:     *seed,
	})
	if err != nil {
		log.Fatal(err)
	}

	opts := peachstar.ProcOptions{ExecTimeout: 100 * time.Millisecond}
	if *verbose {
		opts.Logf = log.Printf
	}
	backend := peachstar.WithProcOptions([]string{bin, "-listen", "{addr}"}, addr, opts)

	fmt.Printf("fuzzing %s at %s for %d execs\n", filepath.Base(bin), addr, *execs)
	run, err := campaign.Start(context.Background(), peachstar.RunConfig{
		Execs: *execs,
		Exec:  backend,
	})
	if err != nil {
		log.Fatal(err)
	}
	for ev := range run.Events() {
		if c, ok := ev.(peachstar.CrashEvent); ok {
			fmt.Printf("crash: %s at %s (%d-packet reproducer)\n",
				c.Record.Kind, c.Record.Site, len(c.Record.Sequence))
		}
	}
	if err := run.Wait(); err != nil {
		log.Fatal(err)
	}

	stats := campaign.Stats()
	fmt.Printf("execs %d: %d edges, %d unique crashes, %d hangs, %d target restarts\n",
		stats.Execs, stats.Edges, stats.UniqueCrashes, stats.Hangs, stats.TargetRestarts)

	// Replay each captured reproducer against a fresh server instance (the
	// campaign's own is gone — the session killed it on shutdown).
	matched := 0
	for _, rec := range campaign.Crashes() {
		if len(rec.Sequence) == 0 {
			continue
		}
		verdict, err := peachstar.ReplayCrash(backend, rec)
		if err != nil {
			log.Fatalf("replaying %s at %s: %v", rec.Kind, rec.Site, err)
		}
		status := "DIVERGED"
		switch {
		case verdict.Match:
			status = "reproduced"
			matched++
		case verdict.Outcome == "ok":
			status = "not input-driven (target survived replay)"
		}
		fmt.Printf("replay %s at %s: %s\n", rec.Kind, rec.Site, status)
	}
	fmt.Printf("realtarget: done (%d/%d reproducers verified)\n", matched, len(campaign.Crashes()))
}
