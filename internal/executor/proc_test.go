package executor

import (
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/sandbox"
)

// The acceptance tests drive the bundled toy Modbus-TCP server
// (examples/realtarget/server) through the supervision loop with crafted
// packets, so every classifier branch — crash by exit status, watchdog
// hang, external kill, survived connection drop — is exercised
// deterministically against a real process.

var (
	serverBin   string
	statefulBin string
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "executor-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	serverBin = filepath.Join(dir, "toy-modbus-server")
	statefulBin = filepath.Join(dir, "toy-stateful-server")
	for bin, pkg := range map[string]string{
		serverBin:   "repro/examples/realtarget/server",
		statefulBin: "repro/examples/stateful/server",
	} {
		out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput()
		if err != nil {
			fmt.Fprintf(os.Stderr, "building %s: %v\n%s", pkg, err, out)
			os.RemoveAll(dir)
			os.Exit(1)
		}
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// freeAddr reserves a loopback port.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func testConfig(t *testing.T) ProcConfig {
	return ProcConfig{
		Cmd:         []string{serverBin, "-listen", "{addr}"},
		Addr:        freeAddr(t),
		ExecTimeout: 150 * time.Millisecond,
		Seed:        7,
	}
}

func newTestProc(t *testing.T) *Proc {
	t.Helper()
	p, err := NewProc(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// mbap frames a PDU in a Modbus-TCP header.
func mbap(pdu ...byte) []byte {
	out := make([]byte, 7+len(pdu))
	binary.BigEndian.PutUint16(out[0:2], 1)
	binary.BigEndian.PutUint16(out[4:6], uint16(1+len(pdu)))
	out[6] = 0xFF
	copy(out[7:], pdu)
	return out
}

// Crafted packets against the toy server's planted faults.
var (
	pktRead     = mbap(3, 0x00, 0x10, 0x00, 0x04) // fc3: read 4 registers at 0x10
	pktWrite    = mbap(6, 0x00, 0x20, 0x12, 0x34) // fc6: benign write
	pktCrashLow = mbap(6, 0xDE, 0x10, 0x00, 0x00) // fc6 @ 0xDE10 → os.Exit(41)
	pktCrashHi  = mbap(6, 0xDE, 0x90, 0x00, 0x00) // fc6 @ 0xDE90 → os.Exit(42)
	pktHang     = mbap(0x41, 0xDE)                // vendor fc + magic → busy loop
)

func mustRun(t *testing.T, p *Proc, pkt []byte) sandbox.Result {
	t.Helper()
	res, err := p.Run(pkt)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// TestProcBasicExchange: benign packets come back OK with response-derived
// coverage and distinct path signatures for distinct response shapes.
func TestProcBasicExchange(t *testing.T) {
	p := newTestProc(t)
	read := mustRun(t, p, pktRead)
	if read.Outcome != sandbox.OK {
		t.Fatalf("read outcome = %v, want OK", read.Outcome)
	}
	readSig := p.Tracer().PathHash()
	if readSig == 0 || p.Tracer().CountEdges() == 0 {
		t.Fatal("response produced no coverage signal")
	}
	write := mustRun(t, p, pktWrite)
	if write.Outcome != sandbox.OK {
		t.Fatalf("write outcome = %v, want OK", write.Outcome)
	}
	if p.Tracer().PathHash() == readSig {
		t.Fatal("distinct response shapes produced identical path signatures")
	}
	if p.Restarts() != 0 {
		t.Fatalf("Restarts = %d after benign traffic, want 0", p.Restarts())
	}
}

// TestProcCrashDetection: the two planted exit paths are detected from
// their exit statuses, classified with distinct signatures, each carrying
// the replayable packet journal, and the target restarts transparently.
func TestProcCrashDetection(t *testing.T) {
	p := newTestProc(t)
	mustRun(t, p, pktRead) // journal context before the fault
	res := mustRun(t, p, pktCrashLow)
	if res.Outcome != sandbox.Crash {
		t.Fatalf("outcome = %v, want Crash", res.Outcome)
	}
	if res.Fault == nil || res.Fault.Kind != mem.ProcExit || res.Fault.Site != "exit:41" {
		t.Fatalf("fault = %+v, want proc-exit at exit:41", res.Fault)
	}
	if len(res.Repro) != 2 {
		t.Fatalf("reproducer has %d packets, want 2 (context + trigger)", len(res.Repro))
	}
	// The campaign continues: next Run respawns.
	if ok := mustRun(t, p, pktRead); ok.Outcome != sandbox.OK {
		t.Fatalf("post-crash outcome = %v, want OK", ok.Outcome)
	}
	if p.Restarts() != 1 {
		t.Fatalf("Restarts = %d, want 1", p.Restarts())
	}
	// The second planted path gets its own signature.
	res2 := mustRun(t, p, pktCrashHi)
	if res2.Fault == nil || res2.Fault.Site != "exit:42" {
		t.Fatalf("fault = %+v, want exit:42", res2.Fault)
	}
	if len(res2.Repro) != 2 {
		t.Fatalf("second reproducer has %d packets, want 2 (journal re-anchored at restart)", len(res2.Repro))
	}
}

// TestProcWatchdogHang: an unresponsive target is classified as a hang
// with the watchdog budget, its process group is killed, and fuzzing
// resumes on a fresh process.
func TestProcWatchdogHang(t *testing.T) {
	p := newTestProc(t)
	mustRun(t, p, pktRead)
	pidBefore := p.Pid()
	res := mustRun(t, p, pktHang)
	if res.Outcome != sandbox.Hang {
		t.Fatalf("outcome = %v, want Hang", res.Outcome)
	}
	if res.HangSteps != 150 {
		t.Fatalf("HangSteps = %d, want 150 (watchdog ms)", res.HangSteps)
	}
	if len(res.Repro) != 2 {
		t.Fatalf("hang reproducer has %d packets, want 2", len(res.Repro))
	}
	// The wedged process group must actually be dead.
	deadline := time.Now().Add(2 * time.Second)
	for syscall.Kill(pidBefore, 0) == nil {
		if time.Now().After(deadline) {
			t.Fatalf("pid %d still alive after watchdog kill", pidBefore)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if ok := mustRun(t, p, pktRead); ok.Outcome != sandbox.OK {
		t.Fatalf("post-hang outcome = %v, want OK", ok.Outcome)
	}
	if p.Restarts() != 1 {
		t.Fatalf("Restarts = %d, want 1", p.Restarts())
	}
}

// TestProcExternalKill: a target killed out from under the campaign (the
// chaos case) is detected as a signal death and the campaign survives;
// replaying the captured sequence finds the target healthy — correctly
// reporting the death as not input-driven.
func TestProcExternalKill(t *testing.T) {
	p := newTestProc(t)
	mustRun(t, p, pktRead)
	pid := p.Pid()
	if pid == 0 {
		t.Fatal("no live pid")
	}
	if err := syscall.Kill(pid, syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	// The next exchange observes the death.
	res := mustRun(t, p, pktWrite)
	if res.Outcome != sandbox.Crash {
		t.Fatalf("outcome = %v, want Crash", res.Outcome)
	}
	if res.Fault.Kind != mem.ProcSignal || res.Fault.Site != "signal:killed" {
		t.Fatalf("fault = %+v, want proc-signal at signal:killed", res.Fault)
	}
	if ok := mustRun(t, p, pktRead); ok.Outcome != sandbox.OK {
		t.Fatalf("post-kill outcome = %v, want OK", ok.Outcome)
	}
	// Replay: a fresh target survives the sequence — external kills are
	// not reproducible from inputs, and the verdict must say so.
	cfg := testConfig(t)
	rep, err := ReplaySession(cfg, res.Repro, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome != sandbox.OK {
		t.Fatalf("replay of externally-killed sequence = %v, want OK", rep.Outcome)
	}
}

// TestProcDroppedConnection: a server shedding the connection (the toy
// server drops on a malformed frame) is survived by reconnecting — no
// crash record, no restart.
func TestProcDroppedConnection(t *testing.T) {
	p := newTestProc(t)
	mustRun(t, p, pktRead)
	// Length field 0 is outside the server's accepted range: it drops the
	// connection without dying.
	malformed := mbap(3, 0, 0, 0, 4)
	binary.BigEndian.PutUint16(malformed[4:6], 0)
	res := mustRun(t, p, malformed)
	if res.Outcome != sandbox.OK {
		t.Fatalf("outcome = %v, want OK (survived drop)", res.Outcome)
	}
	if p.Drops() != 1 {
		t.Fatalf("Drops = %d, want 1", p.Drops())
	}
	if p.Restarts() != 0 {
		t.Fatalf("Restarts = %d, want 0 — a dropped connection is not a crash", p.Restarts())
	}
	if ok := mustRun(t, p, pktWrite); ok.Outcome != sandbox.OK {
		t.Fatalf("post-drop outcome = %v, want OK", ok.Outcome)
	}
}

// TestProcReplayDeterminism: captured reproducers replay to the same
// crash signature on a fresh target — the property that makes them
// reproducers.
func TestProcReplayDeterminism(t *testing.T) {
	p := newTestProc(t)
	mustRun(t, p, pktRead)
	mustRun(t, p, pktWrite)
	res := mustRun(t, p, pktCrashHi)
	if res.Outcome != sandbox.Crash {
		t.Fatalf("outcome = %v, want Crash", res.Outcome)
	}
	p.Close() // free the port for the replay instance
	cfg := testConfig(t)
	rep, err := ReplaySession(cfg, res.Repro, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome != sandbox.Crash {
		t.Fatalf("replay outcome = %v, want Crash", rep.Outcome)
	}
	if rep.Fault.Kind != res.Fault.Kind || rep.Fault.Site != res.Fault.Site {
		t.Fatalf("replay fault %s@%s != original %s@%s",
			rep.Fault.Kind, rep.Fault.Site, res.Fault.Kind, res.Fault.Site)
	}
}

// TestProcJournalCap: reaching the journal cap triggers a preventive
// restart that re-anchors the journal, keeping reproducers bounded.
func TestProcJournalCap(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxJournal = 8
	p, err := NewProc(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 20; i++ {
		if res := mustRun(t, p, pktRead); res.Outcome != sandbox.OK {
			t.Fatalf("exec %d: outcome = %v, want OK", i, res.Outcome)
		}
	}
	if p.Restarts() != 2 {
		t.Fatalf("Restarts = %d, want 2 (20 execs / cap 8)", p.Restarts())
	}
	res := mustRun(t, p, pktCrashLow)
	if res.Outcome != sandbox.Crash {
		t.Fatalf("outcome = %v, want Crash", res.Outcome)
	}
	if len(res.Repro) > cfg.MaxJournal {
		t.Fatalf("reproducer has %d packets, cap is %d", len(res.Repro), cfg.MaxJournal)
	}
}

// TestProcSpawnFailure: a target binary that cannot run exhausts the spawn
// retries and surfaces as an unrecoverable backend error, not a hang.
func TestProcSpawnFailure(t *testing.T) {
	cfg := testConfig(t)
	cfg.Cmd = []string{"/nonexistent/fuzz-target"}
	cfg.SpawnTimeout = time.Second
	p, err := NewProc(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Run(pktRead); err == nil {
		t.Fatal("Run succeeded against a nonexistent binary")
	}
	// The error is sticky: the backend is gone.
	if _, err := p.Run(pktRead); err == nil {
		t.Fatal("second Run succeeded after unrecoverable failure")
	}
}

// TestProcUDP: the datagram transport round-trips and detects crashes the
// same way.
func TestProcUDP(t *testing.T) {
	cfg := testConfig(t)
	cfg.Net = "udp"
	cfg.Cmd = []string{serverBin, "-udp", "-listen", "{addr}"}
	p, err := NewProc(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if res := mustRun(t, p, pktRead); res.Outcome != sandbox.OK {
		t.Fatalf("udp read outcome = %v, want OK", res.Outcome)
	}
	res := mustRun(t, p, pktCrashLow)
	if res.Outcome != sandbox.Crash {
		t.Fatalf("udp crash outcome = %v, want Crash", res.Outcome)
	}
	if res.Fault.Site != "exit:41" {
		t.Fatalf("udp fault site = %q, want exit:41", res.Fault.Site)
	}
}
