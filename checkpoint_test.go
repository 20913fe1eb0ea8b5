package repro

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/executor"
	"repro/internal/fleetnet"
	"repro/internal/leakcheck"
	"repro/internal/targets"
	"repro/peachstar"

	_ "repro/internal/targets/cs101"
	_ "repro/internal/targets/dnp3"
	_ "repro/internal/targets/iccp"
	_ "repro/internal/targets/iec104"
	_ "repro/internal/targets/iec61850"
	_ "repro/internal/targets/modbus"
)

// newCheckpointCampaign builds one campaign for the durable-checkpoint
// suite; every restore test builds the restoring campaign with the same
// options, which is the warm-restart contract.
func newCheckpointCampaign(tb testing.TB, target string, workers int, adaptive, sessions bool) *peachstar.Campaign {
	tb.Helper()
	tgt, err := peachstar.NewTarget(target)
	if err != nil {
		tb.Fatal(err)
	}
	c, err := peachstar.NewCampaign(peachstar.Options{
		Target:   tgt,
		Strategy: peachstar.PeachStar,
		Seed:     1,
		Workers:  workers,
		Adaptive: adaptive,
		Sessions: sessions,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// runCampaign drives the campaign through one Start session to the
// absolute exec budget and waits for it to end.
func runCampaign(tb testing.TB, c *peachstar.Campaign, execs int) {
	tb.Helper()
	run, err := c.Start(context.Background(), peachstar.RunConfig{Execs: execs})
	if err != nil {
		tb.Fatal(err)
	}
	if err := run.Wait(); err != nil {
		tb.Fatal(err)
	}
}

// TestCheckpointRoundTripGolden pins the canonical-encoding half of the
// checkpoint contract, across every stateful layer at once: checkpoint →
// restore into a fresh campaign → checkpoint again must reproduce the
// identical byte string (coverage words, corpus journal, crash bank,
// scheduler tables, session state, RNG positions — any layer that loses
// or reorders state breaks the byte equality), and the restored campaign
// must report identical Stats. The per-case budgets put state in the
// image that a 20000-exec campaign has already decayed or not yet made:
// the early case checkpoints while both generation arms' decaying yield
// counters (Engine.basePaths, semPaths) are still nonzero, and the
// distilled case runs past the adaptive scheduler's first corpus
// distillation (every 32768 execs), so its distillation count is too.
func TestCheckpointRoundTripGolden(t *testing.T) {
	cases := []struct {
		name               string
		target             string
		workers            int
		adaptive, sessions bool
		execs              int
	}{
		{"serial", "libmodbus", 1, false, false, 20000},
		{"early", "libmodbus", 1, false, false, 2000},
		{"adaptive", "libmodbus", 1, true, false, 20000},
		{"adaptive-distilled", "libmodbus", 1, true, false, 40000},
		{"sessions-adaptive", "IEC104", 1, true, true, 20000},
		{"fleet", "libmodbus", 4, true, false, 20000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			first, second := filepath.Join(dir, "a.ckpt"), filepath.Join(dir, "b.ckpt")

			orig := newCheckpointCampaign(t, tc.target, tc.workers, tc.adaptive, tc.sessions)
			runCampaign(t, orig, tc.execs)
			if err := orig.Checkpoint(first); err != nil {
				t.Fatal(err)
			}

			restored := newCheckpointCampaign(t, tc.target, tc.workers, tc.adaptive, tc.sessions)
			if err := restored.RestoreCheckpoint(first); err != nil {
				t.Fatal(err)
			}
			if err := restored.Checkpoint(second); err != nil {
				t.Fatal(err)
			}

			a, err := os.ReadFile(first)
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(second)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("restore is not state-equal: re-checkpoint differs (%d vs %d bytes)", len(a), len(b))
			}
			if got, want := restored.Stats(), orig.Stats(); !reflect.DeepEqual(got, want) {
				t.Fatalf("restored stats diverged:\n got %+v\nwant %+v", got, want)
			}
			if got, want := len(restored.Crashes()), len(orig.Crashes()); got != want {
				t.Fatalf("restored %d crash records, want %d", got, want)
			}
		})
	}
}

// TestCheckpointBytesStable pins the on-disk format itself, where the
// round-trip golden above only proves self-consistency: the SHA-256 of the
// serial Seed-1, 20000-exec checkpoint of every target (plus one
// adaptive+sessions case), captured when checkpoint version 2 moved the
// bitmap and the corpus journal onto the fleet wire's record formats and
// keyed the valuable queues by model index. A reordered field or a
// changed width fails here, and checkpoint files written by that commit
// stay restorable.
func TestCheckpointBytesStable(t *testing.T) {
	for _, tc := range []struct {
		target             string
		adaptive, sessions bool
		sum                string
	}{
		{"IEC104", false, false, "be06423b6796048c84d5ae78f127275da541df1144795219f31189352c14746b"},
		{"lib60870", false, false, "8bb29f7282145db7890a7ceeb6229c4aaf104df1f4850035930b872da0f97977"},
		{"libiccp", false, false, "071270ffe296f2983abc7e165e814569fc34fc95cda988c7a8317f607ee13d7f"},
		{"libiec61850", false, false, "c355b5eb2aaf1592e4d2cdbafbfecd1dabea093fc3503212c42ce97c8281639f"},
		{"libmodbus", false, false, "caca149c7d713e577c5fb593b5d18e443c7414863180022681ca1e1756decdbb"},
		{"opendnp3", false, false, "b22228b24936a3545e69623be3761c761a02a8805ba3bf9438dc53865c9a1ec9"},
		{"IEC104", true, true, "e59175b84db5fef76544f69e6aedf311a4e92096e1318b44daf4b201900976b1"},
	} {
		name := tc.target
		if tc.sessions {
			name += "-sessions-adaptive"
		}
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "a.ckpt")
			c := newCheckpointCampaign(t, tc.target, 1, tc.adaptive, tc.sessions)
			runCampaign(t, c, 20000)
			if err := c.Checkpoint(path); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != tc.sum {
				t.Fatalf("checkpoint bytes changed: sha256 %s (%d bytes), want %s", got, len(data), tc.sum)
			}
		})
	}
}

// TestCheckpointOverWidthRejected: every target's field list pins each
// stored integer to its field's width, so a value too wide for its bank
// (a holding register of 70000) fails the restore instead of being
// truncated into it. Each case splices one over-wide varint over a known
// one-byte field of a fresh target's dump.
func TestCheckpointOverWidthRejected(t *testing.T) {
	for _, tc := range []struct {
		target string
		offset int    // of a field that encodes in one byte on a fresh target
		value  uint64 // one more than the field's width holds
	}{
		{"libmodbus", 0x500 + 0x500 + 100, 70000}, // holding[100], after coils and discrete inputs
		{"IEC104", 1, 1 << 16},                    // vr, after the started flag
		{"lib60870", 2 + 64 + 3, 1 << 16},         // scaled[3], after two flags and the points
		{"libiccp", 2, 1 << 32},                   // the heap's allocation cursor, after two flags
		{"libiec61850", -1, 1 << 32},              // nextFRSM, the dump's last byte
		{"opendnp3", 1, 1 << 8},                   // transport sequence, after the one-byte address
	} {
		t.Run(tc.target, func(t *testing.T) {
			tgt, err := targets.New(tc.target)
			if err != nil {
				t.Fatal(err)
			}
			sc := tgt.(executor.StateCheckpointer)
			var w checkpoint.Writer
			checkpoint.SnapshotFields(&w, sc.StateFields())
			good := w.Data()
			if err := checkpoint.RestoreFields(checkpoint.NewReader(good), sc.StateFields()); err != nil {
				t.Fatalf("a fresh target's own dump does not restore: %v", err)
			}
			off := tc.offset
			if off < 0 {
				off += len(good)
			}
			var wide checkpoint.Writer
			wide.Uvarint(tc.value)
			bad := append(append(append([]byte(nil), good[:off]...), wide.Data()...), good[off+1:]...)
			err = checkpoint.RestoreFields(checkpoint.NewReader(bad), sc.StateFields())
			if err == nil || !strings.Contains(err.Error(), "overflows") {
				t.Fatalf("restore of a %d spliced at byte %d = %v, want a width overflow", tc.value, off, err)
			}
		})
	}
}

// TestCheckpointWarmRestartContinuesExactly pins the strongest warm-restart
// property a serial campaign can have: kill at the halfway checkpoint,
// restore into a fresh campaign, spend the remaining budget — and land
// bit-for-bit where the uninterrupted campaign lands. This subsumes the
// acceptance bound (resumed final coverage >= an equal-remaining-budget
// cold start): the restored RNG stream, scheduler tables and retained
// seeds continue exactly, so nothing beyond the checkpoint interval is
// lost.
func TestCheckpointWarmRestartContinuesExactly(t *testing.T) {
	for _, tc := range []struct {
		name               string
		target             string
		adaptive, sessions bool
	}{
		{"plain", "libmodbus", false, false},
		{"adaptive", "libmodbus", true, false},
		{"sessions", "IEC104", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "mid.ckpt")

			straight := newCheckpointCampaign(t, tc.target, 1, tc.adaptive, tc.sessions)
			runCampaign(t, straight, 30000)

			interrupted := newCheckpointCampaign(t, tc.target, 1, tc.adaptive, tc.sessions)
			runCampaign(t, interrupted, 15000)
			if err := interrupted.Checkpoint(path); err != nil {
				t.Fatal(err)
			}

			resumed := newCheckpointCampaign(t, tc.target, 1, tc.adaptive, tc.sessions)
			if err := resumed.RestoreCheckpoint(path); err != nil {
				t.Fatal(err)
			}
			runCampaign(t, resumed, 30000) // absolute budget: spends only the remainder

			if got, want := resumed.Stats(), straight.Stats(); !reflect.DeepEqual(got, want) {
				t.Fatalf("warm restart diverged from the uninterrupted campaign:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestCheckpointAllTargetsWarmRestart sweeps every registered in-process
// target through the interrupted-versus-straight comparison. Exactness here
// requires the target layer of the seam (executor.StateCheckpointer): each
// target's long-lived state — register banks, simulated heap wear,
// activation flags, file-transfer machines — must resume with the campaign,
// or state-dependent faults fire differently after the restore.
func TestCheckpointAllTargetsWarmRestart(t *testing.T) {
	for _, name := range targets.Names() {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "mid.ckpt")

			straight := newCheckpointCampaign(t, name, 1, true, false)
			runCampaign(t, straight, 12000)

			interrupted := newCheckpointCampaign(t, name, 1, true, false)
			runCampaign(t, interrupted, 6000)
			if err := interrupted.Checkpoint(path); err != nil {
				t.Fatal(err)
			}

			resumed := newCheckpointCampaign(t, name, 1, true, false)
			if err := resumed.RestoreCheckpoint(path); err != nil {
				t.Fatal(err)
			}
			runCampaign(t, resumed, 12000)

			if got, want := resumed.Stats(), straight.Stats(); !reflect.DeepEqual(got, want) {
				t.Fatalf("warm restart diverged:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestCheckpointDigestMismatch: a checkpoint is sealed under the
// campaign's model digest, and restoring it into a campaign with
// different data models is refused — before any state is touched.
func TestCheckpointDigestMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "modbus.ckpt")
	donor := newCheckpointCampaign(t, "libmodbus", 1, false, false)
	runCampaign(t, donor, 5000)
	if err := donor.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	other := newCheckpointCampaign(t, "IEC104", 1, false, false)
	if err := other.RestoreCheckpoint(path); err == nil {
		t.Fatal("restoring a libmodbus checkpoint into an IEC104 campaign succeeded")
	}
}

// TestCheckpointWorkerMismatch: the checkpoint carries the fleet's worker
// count; a campaign built with different parallelism cannot restore it.
func TestCheckpointWorkerMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.ckpt")
	donor := newCheckpointCampaign(t, "libmodbus", 2, false, false)
	runCampaign(t, donor, 4000)
	if err := donor.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	serial := newCheckpointCampaign(t, "libmodbus", 1, false, false)
	if err := serial.RestoreCheckpoint(path); err == nil {
		t.Fatal("restoring a 2-worker checkpoint into a serial campaign succeeded")
	}
}

// statelessTarget hides a target's StateFields: it embeds only the
// targets.Target interface, so its name and models — and with them the
// checkpoint's model digest — match the target it wraps.
type statelessTarget struct{ targets.Target }

// TestCheckpointTargetStateRefused: a checkpoint that carries target state
// must not restore into a campaign whose target cannot absorb it, or the
// warm restart would silently lose the continuation guarantee. A stateless
// campaign's own image (presence byte 0) still round-trips.
func TestCheckpointTargetStateRefused(t *testing.T) {
	dir := t.TempDir()
	newStateless := func() *peachstar.Campaign {
		tgt, err := peachstar.NewTarget("libmodbus")
		if err != nil {
			t.Fatal(err)
		}
		c, err := peachstar.NewCampaign(peachstar.Options{Target: statelessTarget{tgt}, Strategy: peachstar.PeachStar, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	withState := filepath.Join(dir, "stateful.ckpt")
	stateful := newCheckpointCampaign(t, "libmodbus", 1, false, false)
	runCampaign(t, stateful, 2000)
	if err := stateful.Checkpoint(withState); err != nil {
		t.Fatal(err)
	}
	err := newStateless().RestoreCheckpoint(withState)
	if err == nil || !strings.Contains(err.Error(), "cannot restore") {
		t.Fatalf("restoring target state into a stateless target: err = %v, want a cannot-restore refusal", err)
	}

	first, second := filepath.Join(dir, "a.ckpt"), filepath.Join(dir, "b.ckpt")
	orig := newStateless()
	runCampaign(t, orig, 2000)
	if err := orig.Checkpoint(first); err != nil {
		t.Fatal(err)
	}
	restored := newStateless()
	if err := restored.RestoreCheckpoint(first); err != nil {
		t.Fatalf("a stateless campaign's own checkpoint does not restore: %v", err)
	}
	if err := restored.Checkpoint(second); err != nil {
		t.Fatal(err)
	}
	a, _ := os.ReadFile(first)
	b, _ := os.ReadFile(second)
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Fatalf("stateless round trip differs (%d vs %d bytes)", len(a), len(b))
	}
	if got, want := restored.Stats(), orig.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored stats diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestCheckpointCorruptRejected: header damage (magic, version, digest)
// and truncation anywhere must fail the restore with an error, never a
// panic or a silent partial state. An image of the previous format
// version is refused by its version.
func TestCheckpointCorruptRejected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "good.ckpt")
	donor := newCheckpointCampaign(t, "libmodbus", 1, true, false)
	runCampaign(t, donor, 5000)
	if err := donor.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	bad := filepath.Join(dir, "bad.ckpt")
	tryRestore := func(data []byte) error {
		if err := os.WriteFile(bad, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c := newCheckpointCampaign(t, "libmodbus", 1, true, false)
		return c.RestoreCheckpoint(bad)
	}

	for _, i := range []int{0, 4, 5, 12} { // magic, version, digest
		mut := append([]byte(nil), good...)
		mut[i] ^= 0xFF
		if tryRestore(mut) == nil {
			t.Errorf("restore accepted a checkpoint with byte %d flipped", i)
		}
	}
	for _, n := range []int{0, 3, 5, len(good) / 2, len(good) - 1} {
		if tryRestore(good[:n]) == nil {
			t.Errorf("restore accepted a checkpoint truncated to %d bytes", n)
		}
	}
	v1 := append([]byte(nil), good...)
	v1[len(checkpoint.Magic)] = 1
	if err := tryRestore(v1); err == nil || !strings.Contains(err.Error(), "unknown version 1") {
		t.Errorf("restore of a version-1 image = %v, want a refusal naming version 1", err)
	}
}

// TestRunConfigCheckpointPath drives the in-session half: a session with
// CheckpointPath set writes periodic checkpoints at merge-window
// boundaries plus a final one, reports each as a CheckpointEvent before
// the stream closes, and — with no waiting beyond Wait — the file
// warm-restarts a fresh campaign to the finished one's state.
func TestRunConfigCheckpointPath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "live.ckpt")
	c := newCheckpointCampaign(t, "libmodbus", 1, false, false)
	run, err := c.Start(context.Background(), peachstar.RunConfig{
		Execs:           6000,
		CheckpointPath:  path,
		CheckpointEvery: 2048,
	})
	if err != nil {
		t.Fatal(err)
	}
	var execs []int
	for ev := range run.Events() {
		if ck, ok := ev.(peachstar.CheckpointEvent); ok {
			if ck.Err != nil {
				t.Errorf("checkpoint at %d execs failed: %v", ck.Execs, ck.Err)
			}
			if ck.Path != path || ck.Bytes == 0 {
				t.Errorf("malformed checkpoint event: %+v", ck)
			}
			execs = append(execs, ck.Execs)
		}
	}
	if err := run.Wait(); err != nil {
		t.Fatal(err)
	}
	// 6000 execs at a 2048 cadence: checkpoints at 2048, 4096, and the
	// final one after the last window, in snapshot order.
	if len(execs) != 3 || execs[0] < 2048 || execs[1] < 4096 || execs[2] != c.Stats().Execs {
		t.Fatalf("checkpoint events at execs %v, want [2048 4096 %d]", execs, c.Stats().Execs)
	}
	for i := 1; i < len(execs); i++ {
		if execs[i] <= execs[i-1] {
			t.Fatalf("checkpoint execs not strictly increasing: %v", execs)
		}
	}

	restored := newCheckpointCampaign(t, "libmodbus", 1, false, false)
	if err := restored.RestoreCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	// The final checkpoint lands after the final window, so nothing is
	// lost: the restored campaign has the session's full exec count.
	if got, want := restored.Stats(), c.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("final checkpoint does not capture the session's end state:\n got %+v\nwant %+v", got, want)
	}
}

// TestCheckpointWriterTeardown keeps a checkpoint write nearly always in
// flight (a checkpoint every 64 execs) and ends the session mid-run —
// once with Stop, once by canceling the context. Either way the last
// write is joined before Wait returns: right after Wait no temp file is
// left beside the checkpoint and the file restores (after a Stop, to the
// finished campaign's exact state), and every goroutine the session
// started exits (leakcheck.Mark).
func TestCheckpointWriterTeardown(t *testing.T) {
	for _, viaCancel := range []bool{false, true} {
		name := map[bool]string{false: "stop", true: "cancel"}[viaCancel]
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "busy.ckpt")
			c := newCheckpointCampaign(t, "libmodbus", 1, false, false)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			exited := leakcheck.Mark()
			run, err := c.Start(ctx, peachstar.RunConfig{
				CheckpointPath:  path,
				CheckpointEvery: 64,
			})
			if err != nil {
				t.Fatal(err)
			}
			written := 0
			for ev := range run.Events() {
				ck, ok := ev.(peachstar.CheckpointEvent)
				if !ok {
					continue
				}
				if ck.Err != nil {
					t.Errorf("checkpoint at %d execs failed: %v", ck.Execs, ck.Err)
				}
				if written++; written == 8 {
					if viaCancel {
						cancel()
					} else {
						run.Stop()
					}
				}
			}
			err = run.Wait()
			if viaCancel && err != context.Canceled {
				t.Fatalf("Wait after cancel = %v, want context.Canceled", err)
			}
			if !viaCancel && err != nil {
				t.Fatalf("Wait after Stop = %v", err)
			}
			if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(tmps) > 0 {
				t.Errorf("temp files left behind: %v", tmps)
			}
			restored := newCheckpointCampaign(t, "libmodbus", 1, false, false)
			if err := restored.RestoreCheckpoint(path); err != nil {
				t.Fatal(err)
			}
			// A cancel skips the final checkpoint; a Stop takes it.
			if got, want := restored.Stats(), c.Stats(); !viaCancel && !reflect.DeepEqual(got, want) {
				t.Fatalf("final checkpoint after Stop does not capture the end state:\n got %+v\nwant %+v", got, want)
			}
			// The session goroutine and the context watcher may still be
			// returning when Wait does; nothing the session started may
			// stay.
			exited(t, 5*time.Second)
		})
	}
}

// TestCheckpointLeafSession runs both kinds of boundary job at once: a
// leaf session syncs four times per checkpoint, so a round's exchange and
// a checkpoint write are in flight together. Every write succeeds, none is
// skipped, the final image holds the session's end state, and nothing the
// session started outlives it.
func TestCheckpointLeafSession(t *testing.T) {
	const execs, every = 6000, 1024
	hub, err := newCheckpointCampaign(t, "libmodbus", 1, false, false).ServeSync("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	path := filepath.Join(t.TempDir(), "leaf.ckpt")
	c := newCheckpointCampaign(t, "libmodbus", 1, false, false)
	exited := leakcheck.Mark()
	run, err := c.Start(context.Background(), peachstar.RunConfig{
		Execs:           execs,
		SyncEvery:       every / 4,
		CheckpointPath:  path,
		CheckpointEvery: every,
		Attach:          []peachstar.Attachment{peachstar.WithLeaf(hub.Addr())},
	})
	if err != nil {
		t.Fatal(err)
	}
	written, rounds := 0, 0
	for ev := range run.Events() {
		switch ev := ev.(type) {
		case peachstar.CheckpointEvent:
			if ev.Err != nil {
				t.Errorf("checkpoint at %d execs failed: %v", ev.Execs, ev.Err)
			}
			written++
		case peachstar.SyncWindowEvent:
			rounds++
		}
	}
	if err := run.Wait(); err != nil {
		t.Fatal(err)
	}
	if written < execs/every || rounds < execs/(every/4) {
		t.Fatalf("%d checkpoints and %d sync rounds in %d execs, want at least %d and %d", written, rounds, execs, execs/every, execs/(every/4))
	}
	restored := newCheckpointCampaign(t, "libmodbus", 1, false, false)
	if err := restored.RestoreCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Stats(), c.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("final checkpoint does not capture the session's end state:\n got %+v\nwant %+v", got, want)
	}
	// The hub drops the link once the leaf hangs up.
	exited(t, 10*time.Second)
}

// TestCheckpointRelaySession: a RelayOnly hub session executes nothing,
// so its checkpoint is due every relay round; a session shorter than one
// round writes that round's checkpoint and the final one.
func TestCheckpointRelaySession(t *testing.T) {
	path := filepath.Join(t.TempDir(), "relay.ckpt")
	c := newCheckpointCampaign(t, "libmodbus", 1, false, false)
	run, err := c.Start(context.Background(), peachstar.RunConfig{
		RelayOnly:      true,
		Duration:       50 * time.Millisecond,
		CheckpointPath: path,
		Attach:         []peachstar.Attachment{peachstar.WithHub("127.0.0.1:0")},
	})
	if err != nil {
		t.Fatal(err)
	}
	written := 0
	for ev := range run.Events() {
		if ck, ok := ev.(peachstar.CheckpointEvent); ok {
			if ck.Err != nil {
				t.Errorf("relay checkpoint failed: %v", ck.Err)
			}
			written++
		}
	}
	if err := run.Wait(); err != nil {
		t.Fatal(err)
	}
	if written != 2 {
		t.Fatalf("relay session wrote %d checkpoints, want its round's and the final one", written)
	}
	if err := newCheckpointCampaign(t, "libmodbus", 1, false, false).RestoreCheckpoint(path); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointWriteFailureNotFatal: a checkpoint path the writer cannot
// create fails every write, and each failure surfaces as a
// CheckpointEvent error while the session fuzzes on to its budget.
func TestCheckpointWriteFailureNotFatal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing", "dir.ckpt")
	c := newCheckpointCampaign(t, "libmodbus", 1, false, false)
	run, err := c.Start(context.Background(), peachstar.RunConfig{
		Execs:           3000,
		CheckpointPath:  path,
		CheckpointEvery: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	events := 0
	for ev := range run.Events() {
		if ck, ok := ev.(peachstar.CheckpointEvent); ok {
			if ck.Err == nil {
				t.Errorf("checkpoint at %d execs into a missing directory succeeded", ck.Execs)
			}
			events++
		}
	}
	if err := run.Wait(); err != nil {
		t.Fatalf("Wait = %v, want nil: a failed checkpoint write is not a session error", err)
	}
	if c.Stats().Execs < 3000 {
		t.Fatalf("session stopped at %d execs, before its 3000-exec budget", c.Stats().Execs)
	}
	if want := 3000/512 + 1; events != want {
		t.Fatalf("saw %d checkpoint events, want %d", events, want)
	}
}

// fuzzFleets are the shared restore targets of FuzzCheckpointDecode, one
// small fleet per seed image: a libmodbus single-packet fleet, and an
// IEC104 fleet with sessions and the adaptive scheduler, whose image seeds
// the session section (state counts, retained sequences through
// session.Decode, the sequence-operator tables). Each is restored over and
// over from hostile bytes. Reuse across inputs is deliberate — a failed
// restore leaves partial state, and the next input must still decode
// without panicking.
var fuzzFleets struct {
	once   sync.Once
	fleets []fuzzFleet
}

type fuzzFleet struct {
	fleet  *core.Fleet
	digest uint64
	seed   []byte
}

// FuzzCheckpointDecode pins the no-panic property of the whole restore
// path — envelope parsing, every layer's Restore, the cross-layer
// validation — over truncated, corrupt, bit-flipped and non-minimal-varint
// inputs. Errors are the expected outcome; panics and hangs are the bugs.
func FuzzCheckpointDecode(f *testing.F) {
	setup := func(tb testing.TB) {
		fuzzFleets.once.Do(func() {
			for _, tc := range []struct {
				target   string
				sessions bool
			}{{"libmodbus", false}, {"IEC104", true}} {
				tgt, err := targets.New(tc.target)
				if err != nil {
					tb.Fatal(err)
				}
				cfg := core.Config{
					Models:   tgt.Models(),
					Target:   tgt,
					Strategy: core.StrategyPeachStar,
					Seed:     1,
					Adaptive: true,
				}
				if tc.sessions {
					cfg.Session = tgt.(targets.SessionTarget).StateModel()
				}
				fleet, err := core.NewFleet(cfg, core.ParallelConfig{Workers: 1})
				if err != nil {
					tb.Fatal(err)
				}
				fleet.Drive(nil, core.Budget{Execs: 3000}, nil)
				digest := fleetnet.ModelDigest(tc.target, tgt.Models())
				seed := fleet.Checkpoint(digest)
				if err := fleet.RestoreCheckpoint(seed, digest); err != nil {
					tb.Fatalf("%s: the seed image does not restore: %v", tc.target, err)
				}
				fuzzFleets.fleets = append(fuzzFleets.fleets, fuzzFleet{fleet, digest, seed})
			}
		})
	}
	setup(f)

	f.Add([]byte{})
	f.Add([]byte("PSCK"))
	for _, ff := range fuzzFleets.fleets {
		good := ff.seed
		f.Add(good)
		f.Add(good[:len(good)/2])
		f.Add(good[:len(good)-1])
		// Non-minimal varint: 0x80 0x00 spliced after the header.
		nonMin := append([]byte(nil), good[:13]...)
		nonMin = append(nonMin, 0x80, 0x00)
		nonMin = append(nonMin, good[13:]...)
		f.Add(nonMin)
		for _, i := range []int{0, 4, 5, 13, len(good) / 2, len(good) - 2} {
			mut := append([]byte(nil), good...)
			mut[i] ^= 0x81
			f.Add(mut)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		setup(t)
		// Outcome is unspecified (garbage usually errors, a seed image
		// restores into its own fleet); what the fuzz pins is no panic, no
		// unbounded allocation, no hang.
		for _, ff := range fuzzFleets.fleets {
			_ = ff.fleet.RestoreCheckpoint(data, ff.digest)
		}
	})
}
