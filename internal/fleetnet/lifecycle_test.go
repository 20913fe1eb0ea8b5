package fleetnet

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/coverage"
	"repro/internal/crash"
)

// Session-lifecycle regression tests for the bugs found reviewing PR 3:
// the reconnect race on remoteLeaf.connected, the dead resumeCursor wire
// field, and all-or-nothing echo suppression in the uplink.

// connCount is a test-only window into the node's live inbound
// connection set.
func (n *Node) connCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.conns)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// injectPuzzle plants one puzzle in a shared state's corpus journal, the
// way an inbound session or a worker sync would.
func injectPuzzle(state *core.SyncState, p corpus.Puzzle) {
	state.Exchange(core.ExchangeFunc(func(_ *coverage.Virgin, corp *corpus.Corpus, _ *crash.Bank) error {
		corp.Absorb(p)
		return nil
	}))
}

// TestRapidReconnectKeepsConnectedCount pins the reconnect race fix: when
// a node redials before its old connection is reaped, the stale handler's
// teardown must not mark the live session disconnected — only the session
// currently owning the node id may clear the flag.
func TestRapidReconnectKeepsConnectedCount(t *testing.T) {
	state := core.NewSyncState(0)
	fleet1, tgt1 := newLeafFleet(t, 21, 0)
	fleet2, tgt2 := newLeafFleet(t, 21, 1)
	hub := startHub(t, state, tgt1.Models())

	leaf1 := newTestLeaf(t, fleet1, tgt1, hub.Addr(), "dup")
	if err := leaf1.Sync(); err != nil {
		t.Fatal(err)
	}
	// The same node id redials (a restarted process reusing its id) while
	// the first connection still lingers hub-side.
	leaf2 := newTestLeaf(t, fleet2, tgt2, hub.Addr(), "dup")
	if err := leaf2.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, _, connected := hub.RemoteStats(); connected != 1 {
		t.Fatalf("hub reports %d connected for one node id with two sessions, want 1", connected)
	}

	// The STALE session dies; its teardown must not touch the live one.
	leaf1.Close()
	waitFor(t, "stale connection reap", func() bool { return hub.connCount() == 1 })
	if _, _, connected := hub.RemoteStats(); connected != 1 {
		t.Fatalf("stale teardown disconnected the live session: connected = %d, want 1", connected)
	}
	if err := leaf2.Sync(); err != nil {
		t.Fatalf("live session broken after stale teardown: %v", err)
	}
	if _, _, leaves, ok := leaf2.FleetStats(); !ok || leaves != 1 {
		t.Fatalf("ack leaves = %d (ok=%v), want 1", leaves, ok)
	}

	// The CURRENT session's teardown does clear the flag.
	leaf2.Close()
	waitFor(t, "live connection reap", func() bool { return hub.connCount() == 0 })
	if _, _, connected := hub.RemoteStats(); connected != 0 {
		t.Fatalf("connected = %d after the owning session closed, want 0", connected)
	}
}

// TestResumeCursorPinsCompactionFromHandshake pins the fix for the dead
// resumeCursor wire field: the hub must seed the connection's journal
// registration from it at handshake time, so a resuming peer's unread tail
// is protected from compaction before its first sync — and the first sync
// is an incremental tail, not a full replay.
func TestResumeCursorPinsCompactionFromHandshake(t *testing.T) {
	const puzzleBytes = 1024
	state := core.NewSyncState(0)
	fleetX, tgtX := newLeafFleet(t, 23, 0)
	fleetY, tgtY := newLeafFleet(t, 23, 1)
	hub := startHub(t, state, tgtX.Models())
	leafX := newTestLeaf(t, fleetX, tgtX, hub.Addr(), "leaf-x")
	leafY := newTestLeaf(t, fleetY, tgtY, hub.Addr(), "leaf-y")

	for i := 0; i < 3; i++ {
		injectPuzzle(state, corpus.Puzzle{
			Signature: fmt.Sprintf("early-%d", i),
			Data:      bytes.Repeat([]byte{byte(i)}, puzzleBytes),
			Model:     "m",
		})
	}
	if err := leafX.Sync(); err != nil {
		t.Fatal(err)
	}
	if leafX.session.remoteCursor != 3 {
		t.Fatalf("leaf-x consumed to cursor %d, want 3", leafX.session.remoteCursor)
	}

	// Disconnect and wait for the hub to reap the session (dropping its
	// registration), then grow the journal past the saved cursor.
	leafX.Close()
	waitFor(t, "leaf-x session reap", func() bool { return hub.connCount() == 0 })
	for i := 0; i < 2; i++ {
		injectPuzzle(state, corpus.Puzzle{
			Signature: fmt.Sprintf("late-%d", i),
			Data:      bytes.Repeat([]byte{0x10 + byte(i)}, puzzleBytes),
			Model:     "m",
		})
	}

	// Handshake only — no sync yet. The resume cursor alone must pin
	// compaction at 3 while another peer races ahead and compacts.
	if err := leafX.dial(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := leafY.Sync(); err != nil {
		t.Fatal(err)
	}
	var base int
	state.Exchange(core.ExchangeFunc(func(_ *coverage.Virgin, corp *corpus.Corpus, _ *crash.Bank) error {
		base = corp.JournalBase()
		return nil
	}))
	if base > 3 {
		t.Fatalf("journal compacted to base %d past the resuming leaf's cursor 3: handshake did not pin it", base)
	}
	if base == 0 {
		t.Fatalf("journal never compacted (base 0): compaction path not exercised")
	}

	// The resuming leaf's first window must then be the incremental tail
	// (2 late puzzles), not a 5-puzzle full replay.
	_, rx0 := leafX.Traffic()
	if err := leafX.Sync(); err != nil {
		t.Fatal(err)
	}
	_, rx1 := leafX.Traffic()
	if got := rx1 - rx0; got >= 4*puzzleBytes {
		t.Fatalf("resume window received %d bytes — a full replay, not the 2-puzzle tail", got)
	}
	if leafX.session.remoteCursor != 5 {
		t.Fatalf("leaf-x cursor = %d after resume window, want 5", leafX.session.remoteCursor)
	}
}

// TestStaleCursorHealsToIncremental pins the stale-cursor self-heal: a
// dialer resuming with a cursor minted by a previous incarnation of the
// acceptor's state (beyond the live journal end) gets one full replay and
// a CORRECTED cursor back — not its own stale cursor echoed, which would
// degrade every subsequent window to a full replay.
func TestStaleCursorHealsToIncremental(t *testing.T) {
	const puzzleBytes = 1024
	state := core.NewSyncState(0)
	fleet, tgt := newLeafFleet(t, 31, 0)
	hub := startHub(t, state, tgt.Models())
	leaf := newTestLeaf(t, fleet, tgt, hub.Addr(), "leaf-stale")

	for i := 0; i < 3; i++ {
		injectPuzzle(state, corpus.Puzzle{
			Signature: fmt.Sprintf("sig-%d", i),
			Data:      bytes.Repeat([]byte{byte(i)}, puzzleBytes),
			Model:     "m",
		})
	}
	// A cursor saved against a hub incarnation that no longer exists.
	leaf.session.remoteCursor = 500

	// First window: the hub serves the full-replay fallback once...
	if err := leaf.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := leaf.session.remoteCursor; got != 3 {
		t.Fatalf("cursor after stale-resume window = %d, want healed to 3 (journal end)", got)
	}
	// ...and subsequent windows are incremental again, near the protocol
	// floor — not another 3 KiB replay.
	_, rx0 := leaf.Traffic()
	if err := leaf.Sync(); err != nil {
		t.Fatal(err)
	}
	_, rx1 := leaf.Traffic()
	if got := rx1 - rx0; got >= puzzleBytes {
		t.Fatalf("window after heal received %d bytes — still replaying instead of incremental", got)
	}
}

// TestNoEchoOfAbsorbedPuzzlesUnderInterleave pins the echo-suppression
// fix: puzzles absorbed from the remote must never be pushed back to it,
// even when concurrent local appends land between building a push and
// applying its ack (the case the old pushCursor==preLen shortcut missed).
func TestNoEchoOfAbsorbedPuzzlesUnderInterleave(t *testing.T) {
	state := core.NewSyncState(0)
	fleet, tgt := newLeafFleet(t, 29, 0)
	hub := startHub(t, state, tgt.Models())
	leaf := newTestLeaf(t, fleet, tgt, hub.Addr(), "leaf-echo")

	big := corpus.Puzzle{Signature: "hub-big", Data: bytes.Repeat([]byte{0xA5}, 4096), Model: "m"}
	injectPuzzle(state, big)

	// One sync window, hand-driven so a local append can interleave while
	// the frames are in flight — in production an inbound mesh session or
	// a worker flush appends to the shared journal exactly there.
	fleet.SyncAll()
	if err := leaf.dial(context.Background()); err != nil {
		t.Fatal(err)
	}
	req := leaf.buildPush()
	local := corpus.Puzzle{Signature: "local-sig", Data: []byte{1, 2, 3, 4}, Model: "m"}
	injectPuzzle(fleet.State(), local)
	ack, err := leaf.roundTrip(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if err := leaf.applyAck(ack); err != nil {
		t.Fatal(err)
	}
	if _, rx := leaf.Traffic(); rx < len(big.Data) {
		t.Fatalf("window 1 received %d bytes; the big hub puzzle did not arrive", rx)
	}

	// The next ordinary window must push the interleaved local puzzle and
	// nothing of the absorbed hub material.
	tx0, _ := leaf.Traffic()
	if err := leaf.Sync(); err != nil {
		t.Fatal(err)
	}
	tx1, _ := leaf.Traffic()
	if got := tx1 - tx0; got >= len(big.Data) {
		t.Fatalf("window 2 pushed %d bytes — the absorbed hub puzzle was echoed back", got)
	}
	var sigs []string
	state.Exchange(core.ExchangeFunc(func(_ *coverage.Virgin, corp *corpus.Corpus, _ *crash.Bank) error {
		sigs = corp.Signatures()
		return nil
	}))
	found := false
	for _, s := range sigs {
		if s == "local-sig" {
			found = true
		}
	}
	if !found {
		t.Fatalf("interleaved local puzzle never reached the hub (signatures: %v)", sigs)
	}
}
