package targets_test

import (
	"testing"
	"testing/quick"

	"repro/internal/executor"
	"repro/internal/rng"
	"repro/internal/targets"
)

// TestCrackNeverPanics: the cracker (Algorithm 2's PARSE) must reject
// arbitrary bytes with an error, never a panic, for every model of every
// target — the fuzzer feeds it every valuable seed it finds.
func TestCrackNeverPanics(t *testing.T) {
	for _, name := range targets.Names() {
		tgt, err := targets.New(name)
		if err != nil {
			t.Fatal(err)
		}
		models := tgt.Models()
		f := func(data []byte) bool {
			for _, m := range models {
				// Crack either succeeds or errors; a panic fails
				// the quick.Check run.
				ins, err := m.Crack(data)
				if err == nil && ins == nil {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestCrackedBytesRoundTrip: whenever a model accepts bytes, re-serializing
// the instantiation tree reproduces them exactly — the invariant that makes
// puzzles faithful donor material.
func TestCrackedBytesRoundTrip(t *testing.T) {
	r := rng.New(77)
	for _, name := range targets.Names() {
		tgt, _ := targets.New(name)
		for _, m := range tgt.Models() {
			// Probe with mutated defaults: flip a few bytes of a
			// valid packet; accepted ones must round trip.
			base := m.Generate().Bytes()
			for i := 0; i < 50; i++ {
				pkt := append([]byte(nil), base...)
				for k := r.Range(1, 3); k > 0; k-- {
					pkt[r.Intn(len(pkt))] = r.Byte()
				}
				ins, err := m.Crack(pkt)
				if err != nil {
					continue
				}
				got := ins.Bytes()
				if string(got) != string(pkt) {
					t.Fatalf("%s/%s: crack/serialize not identity\n in  %x\n out %x",
						name, m.Name, pkt, got)
				}
			}
		}
	}
}

// TestHandleNeverHangs: every target must terminate on arbitrary packets —
// the hang watchdog exists for defense, not for routine use.
func TestHandleNeverHangs(t *testing.T) {
	r := rng.New(88)
	for _, name := range targets.Names() {
		tgt, _ := targets.New(name)
		runner := executor.NewInProc(tgt)
		for i := 0; i < 300; i++ {
			pkt := r.Bytes(r.Range(0, 96))
			if res, _ := runner.Run(pkt); res.Outcome == executor.Hang {
				t.Fatalf("%s hung on %x", name, pkt)
			}
		}
	}
}
