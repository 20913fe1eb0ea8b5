package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/executor"
	"repro/internal/targets"

	_ "repro/internal/targets/cs101"
	_ "repro/internal/targets/dnp3"
	_ "repro/internal/targets/iccp"
	_ "repro/internal/targets/iec104"
	_ "repro/internal/targets/iec61850"
	_ "repro/internal/targets/modbus"
)

// packetHasher wraps the in-process backend and folds every packet the
// engine hands it into one FNV-1a hash, each packet preceded by its length
// so a byte moving across a packet boundary changes the hash.
type packetHasher struct {
	*executor.InProc
	sum uint64
}

func (h *packetHasher) Run(pkt []byte) (executor.Result, error) {
	const prime = 1099511628211
	h.sum = (h.sum ^ uint64(len(pkt))) * prime
	for _, b := range pkt {
		h.sum = (h.sum ^ uint64(b)) * prime
	}
	return h.InProc.Run(pkt)
}

// seedStreamGolden is the packet-stream hash of a serial Peach* campaign
// after 20000 executions at seed 1, per target; "IEC104+sessions" drives
// the IEC104 state machine (see TestSeedStreamGolden). Recorded on the last
// commit whose engine cloned and walked an instance tree per exec.
var seedStreamGolden = map[string]uint64{
	"libmodbus":       0x6c1b28a994d4eb67,
	"IEC104":          0xeabf1ff6e4b7150e,
	"libiec61850":     0x0c6a5ddb2ccb157b,
	"lib60870":        0x54f5ffcb750c3fff,
	"libiccp":         0x9c74b8209999e4f5,
	"opendnp3":        0xe37b5a66283ec194,
	"IEC104+sessions": 0x4a97ac025a2dea78,
}

// TestSeedStreamGolden pins the bytes the engine generates, not just the
// counters they lead to: every packet handed to the executor, in order. The
// stats fingerprints (adaptiveOffGolden) can survive a change that alters a
// packet the target happens to treat the same; this cannot.
func TestSeedStreamGolden(t *testing.T) {
	for name, golden := range seedStreamGolden {
		target, sessions := name, false
		if name == "IEC104+sessions" {
			target, sessions = "IEC104", true
		}
		tgt, err := targets.New(target)
		if err != nil {
			t.Fatal(err)
		}
		h := &packetHasher{InProc: executor.NewInProc(tgt), sum: 14695981039346656037}
		cfg := core.Config{Models: tgt.Models(), Target: tgt, Strategy: core.StrategyPeachStar, Seed: 1}
		if sessions {
			cfg.Session = tgt.(targets.SessionTarget).StateModel()
		}
		eng, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng.SwapExecutor(h)
		eng.Run(20000)
		if h.sum != golden {
			t.Errorf("%s: packet stream hash %#x, want %#x — the generated bytes changed", name, h.sum, golden)
		}
	}
}
