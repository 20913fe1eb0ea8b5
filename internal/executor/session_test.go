package executor

import (
	"testing"
	"time"

	"repro/internal/mem"
)

// These tests drive the toy stateful IEC-104-style server
// (examples/stateful/server) through the session-aware supervision
// machinery: BeginSession boundaries, mid-sequence connection drops with
// prefix re-establishment, and boundary-honoring reproducer replay.

func statefulConfig(t *testing.T) ProcConfig {
	return ProcConfig{
		Cmd:         []string{statefulBin, "-listen", "{addr}"},
		Addr:        freeAddr(t),
		ExecTimeout: 150 * time.Millisecond,
		Seed:        7,
	}
}

// Crafted packets against the stateful server's protocol.
func iFrame104(ns byte, typeID byte) []byte {
	asdu := []byte{typeID, 0x01, 0x06, 0x00, 0x01, 0x00, 0x01, 0x00, 0x00}
	body := append([]byte{ns << 1, 0x00, 0x00, 0x00}, asdu...)
	return append([]byte{0x68, byte(len(body))}, body...)
}

var (
	pktStartDT = []byte{0x68, 0x04, 0x07, 0x00, 0x00, 0x00}
	pktI0      = iFrame104(0, 0x01)
	pktI1      = iFrame104(1, 0x01)
	pktDrop    = iFrame104(9, 0xfe) // one-shot injected connection drop
	pktCmd     = iFrame104(2, 0x2d) // planted fault after 2 accepted I-frames
)

// TestSessionProcDeepFault: the planted fault needs the whole stateful
// prefix — STARTDT, two correctly-sequenced I-frames — on one session,
// and the captured reproducer carries the session boundary.
func TestSessionProcDeepFault(t *testing.T) {
	p, err := NewProc(statefulConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.BeginSession(); err != nil {
		t.Fatal(err)
	}
	for _, pkt := range [][]byte{pktStartDT, pktI0, pktI1} {
		if res := mustRun(t, p, pkt); res.Outcome != OK {
			t.Fatalf("prefix outcome = %v, want OK", res.Outcome)
		}
	}
	res := mustRun(t, p, pktCmd)
	if res.Outcome != Crash {
		t.Fatalf("outcome = %v, want Crash", res.Outcome)
	}
	if res.Fault.Kind != mem.ProcExit || res.Fault.Site != "exit:3" {
		t.Fatalf("fault = %+v, want exit:3", res.Fault)
	}
	if len(res.Repro) != 4 {
		t.Fatalf("reproducer has %d packets, want 4", len(res.Repro))
	}
	if len(res.ReproStarts) != 1 || res.ReproStarts[0] != 0 {
		t.Fatalf("ReproStarts = %v, want [0]", res.ReproStarts)
	}
}

// TestSessionBoundaryResetsServerState: a BeginSession boundary drops the
// connection, so the server's activation state resets — the same command
// that crashes inside one session is inert when the prefix and trigger
// are separated by a boundary. No respawn is paid for the boundary.
func TestSessionBoundaryResetsServerState(t *testing.T) {
	p, err := NewProc(statefulConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.BeginSession(); err != nil {
		t.Fatal(err)
	}
	for _, pkt := range [][]byte{pktStartDT, pktI0, pktI1} {
		mustRun(t, p, pkt)
	}
	if err := p.BeginSession(); err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, p, pktCmd)
	if res.Outcome != OK {
		t.Fatalf("post-boundary command = %v, want OK (fresh session state)", res.Outcome)
	}
	if p.Restarts() != 0 {
		t.Fatalf("Restarts = %d, want 0 — a session boundary is not a respawn", p.Restarts())
	}
}

// TestSessionDropReestablishesPrefix is the fault-injection satellite:
// the server kills the connection mid-sequence (one-shot trigger); the
// executor must survive the drop, re-establish the session prefix on the
// fresh connection, and the eventual reproducer must replay — boundaries
// honored — to the matching crash signature.
func TestSessionDropReestablishesPrefix(t *testing.T) {
	p, err := NewProc(statefulConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.BeginSession(); err != nil {
		t.Fatal(err)
	}
	mustRun(t, p, pktStartDT)
	mustRun(t, p, pktI0)
	// Injected drop: the server closes the connection without dying.
	if res := mustRun(t, p, pktDrop); res.Outcome != OK {
		t.Fatalf("drop outcome = %v, want OK (survived)", res.Outcome)
	}
	if !onlyDropMarked(p) || p.Restarts() != 0 {
		t.Fatalf("tracer holds %d edges, Restarts = %d; want only the drop marker and 0", p.Tracer().CountEdges(), p.Restarts())
	}
	// Only a re-established prefix (STARTDT + I0 replayed on the fresh
	// connection) lets the rest of the sequence stay in step: I1 must be
	// accepted (server vr back at 1) for the command to fire the fault.
	mustRun(t, p, pktI1)
	res := mustRun(t, p, pktCmd)
	if res.Outcome != Crash || res.Fault.Site != "exit:3" {
		t.Fatalf("post-drop sequence did not reach the fault: %+v", res)
	}
	if len(res.Repro) != 5 {
		t.Fatalf("reproducer has %d packets, want 5", len(res.Repro))
	}
	repro, starts := res.Repro, res.ReproStarts
	p.Close() // free the port for the replay instance

	// Boundary-honoring replay against a fresh process: the one-shot drop
	// re-arms, the prefix re-establishes again, the signature matches.
	rep, err := ReplaySession(statefulConfig(t), repro, starts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome != Crash {
		t.Fatalf("replay outcome = %v, want Crash", rep.Outcome)
	}
	if rep.Fault.Kind != res.Fault.Kind || rep.Fault.Site != res.Fault.Site {
		t.Fatalf("replay fault %s@%s != original %s@%s",
			rep.Fault.Kind, rep.Fault.Site, res.Fault.Kind, res.Fault.Site)
	}
}

// TestSessionReplayBoundaries: a reproducer whose sessions were separated
// by a boundary only reproduces when the boundary is honored — replaying
// the same packets down one connection reaches a different (crashing!)
// state, which is exactly the byte-blind-replay bug the boundary fixes.
func TestSessionReplayBoundaries(t *testing.T) {
	// Captured shape: [STARTDT I0 I1] boundary [CMD]. With the boundary,
	// CMD lands on a fresh session and the target survives.
	seq := [][]byte{pktStartDT, pktI0, pktI1, pktCmd}
	rep, err := ReplaySession(statefulConfig(t), seq, []int{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome != OK {
		t.Fatalf("boundary-honoring replay = %v, want OK", rep.Outcome)
	}
	// Byte-blind (boundary-free) replay of the same packets crashes: the
	// session state wrongly carries over.
	rep, err = ReplaySession(statefulConfig(t), seq, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome != Crash {
		t.Fatalf("byte-blind replay = %v, want Crash (state carried over)", rep.Outcome)
	}
}

// TestSessionJournalCapAtBoundary: with sessions on, preventive restarts
// happen only at BeginSession, so a journal longer than the cap is never
// severed mid-sequence.
func TestSessionJournalCapAtBoundary(t *testing.T) {
	cfg := statefulConfig(t)
	cfg.MaxJournal = 4
	p, err := NewProc(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.BeginSession(); err != nil {
		t.Fatal(err)
	}
	// 6 packets on one session: exceeds the cap, must not restart.
	for i := 0; i < 6; i++ {
		if res := mustRun(t, p, pktStartDT); res.Outcome != OK {
			t.Fatalf("exec %d: %v", i, res.Outcome)
		}
	}
	if p.Restarts() != 0 {
		t.Fatalf("Restarts = %d mid-sequence, want 0", p.Restarts())
	}
	// The next boundary pays the preventive restart and re-anchors.
	if err := p.BeginSession(); err != nil {
		t.Fatal(err)
	}
	if res := mustRun(t, p, pktStartDT); res.Outcome != OK {
		t.Fatalf("post-boundary exec: %v", res.Outcome)
	}
	if p.Restarts() != 1 {
		t.Fatalf("Restarts = %d after boundary, want 1", p.Restarts())
	}
}
