package coverage

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/checkpoint"
)

// delta returns cur's WriteDelta encoding against shadow, walking cur's
// whole change log (the zero Cursor).
func delta(cur, shadow *Virgin) []byte {
	var w checkpoint.Writer
	cur.WriteDelta(&w, shadow, Cursor{})
	return w.Data()
}

// randomVirgin merges n random sparse executions into a fresh accumulator.
func randomVirgin(r *rand.Rand, execs int) *Virgin {
	v := NewVirgin()
	raw := make([]byte, MapSize)
	for e := 0; e < execs; e++ {
		clear(raw)
		for h := 0; h < 200; h++ {
			raw[r.Intn(MapSize)] = byte(1 + r.Intn(255))
		}
		v.Merge(raw)
	}
	return v
}

func TestVirginDeltaFullStateFromEmptyShadow(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	cur := randomVirgin(r, 10)

	frame := delta(cur, NewVirgin())
	got := NewVirgin()
	changed, err := got.ApplyDelta(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("applying a non-empty delta reported no change")
	}
	if got.seen != cur.seen {
		t.Fatal("decoded bitmap differs from the source")
	}
	if got.Edges() != cur.Edges() {
		t.Fatalf("decoded edges = %d, source = %d", got.Edges(), cur.Edges())
	}
}

// TestVirginDeltaIncrementalMatchesMergeVirgin drives several rounds of new
// coverage through the delta path and checks the receiver stays bit-for-bit
// identical to a receiver using the in-process MergeVirgin union, each
// side holding its cursor into the sender's change log.
func TestVirginDeltaIncrementalMatchesMergeVirgin(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	cur := NewVirgin()
	shadow := NewVirgin()
	viaDelta := NewVirgin()
	viaMerge := NewVirgin()
	var sent, merged Cursor
	raw := make([]byte, MapSize)

	for round := 0; round < 8; round++ {
		for e := 0; e < 5; e++ {
			for i := range raw {
				raw[i] = 0
			}
			for h := 0; h < 100; h++ {
				raw[r.Intn(MapSize)] = byte(1 + r.Intn(255))
			}
			cur.Merge(raw)
		}
		var w, dense checkpoint.Writer
		denseShadow := *shadow
		denseWriteDelta(&dense, cur, &denseShadow)
		sent = cur.WriteDelta(&w, shadow, sent)
		if !bytes.Equal(w.Data(), dense.Data()) || shadow.seen != denseShadow.seen {
			t.Fatalf("round %d: delta from a held cursor differs from the dense delta", round)
		}
		if _, err := viaDelta.ApplyDelta(w.Data()); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		merged, _ = viaMerge.MergeVirgin(cur, merged)
		if viaDelta.seen != viaMerge.seen || viaDelta.Edges() != viaMerge.Edges() {
			t.Fatalf("round %d: delta receiver diverged from MergeVirgin receiver", round)
		}
	}
	if shadow.seen != cur.seen || shadow.Edges() != cur.Edges() {
		t.Fatal("shadow did not catch up to the sender state")
	}
}

func TestVirginDeltaEmptyWhenCaughtUp(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	cur := randomVirgin(r, 5)
	shadow := NewVirgin()
	delta(cur, shadow)

	frame := delta(cur, shadow)
	if len(frame) != 1 || frame[0] != 0 {
		t.Fatalf("caught-up delta = %x, want the single-byte zero count", frame)
	}
	v := NewVirgin()
	changed, err := v.ApplyDelta(frame)
	if err != nil || changed {
		t.Fatalf("empty delta: changed=%v err=%v", changed, err)
	}
}

// TestVirginDeltaIdempotent re-applies the same frame (the reconnect case)
// and checks nothing double-counts.
func TestVirginDeltaIdempotent(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	cur := randomVirgin(r, 10)
	frame := delta(cur, NewVirgin())

	v := NewVirgin()
	if _, err := v.ApplyDelta(frame); err != nil {
		t.Fatal(err)
	}
	edges := v.Edges()
	changed, err := v.ApplyDelta(frame)
	if err != nil {
		t.Fatal(err)
	}
	if changed || v.Edges() != edges {
		t.Fatalf("re-applying the same delta: changed=%v, edges %d -> %d", changed, edges, v.Edges())
	}
}

func TestVirginDeltaRejectsMalformedFrames(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	frame := delta(randomVirgin(r, 5), NewVirgin())
	cases := map[string][]byte{
		"empty":           {},
		"truncated entry": frame[:len(frame)-3],
		"trailing bytes":  append(append([]byte{}, frame...), 0xff),
		"out of range":    {1, 0xff, 0xff, 0x7f, 1, 2, 3, 4, 5, 6, 7, 8},
		"non-ascending":   {2, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0},
	}
	for name, f := range cases {
		if _, err := NewVirgin().ApplyDelta(f); err == nil {
			t.Errorf("%s: malformed frame accepted", name)
		}
		// A checkpoint section is read by Restore and then finished.
		cr := checkpoint.NewReader(f)
		err := NewVirgin().Restore(cr)
		if err == nil {
			err = cr.Finish()
		}
		if err == nil {
			t.Errorf("%s: malformed snapshot restored", name)
		}
	}
}

// TestVirginDeltaUnionWithLocalState: applying a remote delta into an
// accumulator that already has local coverage must behave as a union, the
// same as MergeVirgin of the remote state would.
func TestVirginDeltaUnionWithLocalState(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	remote := randomVirgin(r, 8)
	localA := randomVirgin(r, 8)
	localB := NewVirgin()
	localB.MergeVirgin(localA, Cursor{})

	frame := delta(remote, NewVirgin())
	if _, err := localA.ApplyDelta(frame); err != nil {
		t.Fatal(err)
	}
	localB.MergeVirgin(remote, Cursor{})
	if localA.seen != localB.seen || localA.Edges() != localB.Edges() {
		t.Fatal("delta union differs from MergeVirgin union")
	}
}

// BenchmarkWriteDelta is one delta into a caught-up shadow of a
// 50-execution accumulator. "steady" holds the cursor at the end of the
// log and there is no novelty: a sync round or checkpoint that found
// nothing new. "log" walks the whole log from the zero Cursor, as a
// delta into a fresh shadow or a Snapshot does.
func BenchmarkWriteDelta(b *testing.B) {
	cur := randomVirgin(rand.New(rand.NewSource(7)), 50)
	shadow := NewVirgin()
	var w checkpoint.Writer
	end := cur.WriteDelta(&w, shadow, Cursor{})
	for _, bc := range []struct {
		name string
		from Cursor
	}{{"steady", end}, {"log", Cursor{}}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var w checkpoint.Writer
				cur.WriteDelta(&w, shadow, bc.from)
			}
		})
	}
}

// FuzzVirginDelta pins ApplyDelta's contract over arbitrary bytes: an error
// or a union, never a panic (a gap of 2^64-1 must not wrap the word index
// to -1) and nothing allocated from a declared count; an accepted delta
// is idempotent, the state it built re-encodes to a delta that builds
// the same state, and that state's snapshot — the delta against an empty
// shadow — survives Snapshot → Restore → Snapshot with identical bytes.
func FuzzVirginDelta(f *testing.F) {
	good := delta(randomVirgin(rand.New(rand.NewSource(8)), 3), NewVirgin())
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{0x80, 0x00})                                                                            // non-minimal count
	f.Add([]byte{0xff, 0xff, 0x03, 1, 1, 2, 3, 4, 5, 6, 7, 8})                                           // count beyond the input
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 1, 0, 0, 0, 0, 0, 0, 0}) // gap 2^64-1
	f.Add([]byte{2, 5, 1, 0, 0, 0, 0, 0, 0, 0, 0xff, 0x3f, 1, 0, 0, 0, 0, 0, 0, 0})                      // second index out of range
	f.Fuzz(func(t *testing.T, data []byte) {
		v := NewVirgin()
		if _, err := v.ApplyDelta(data); err != nil {
			return
		}
		edges := v.Edges()
		if changed, err := v.ApplyDelta(data); err != nil || changed || v.Edges() != edges {
			t.Fatalf("re-applying an accepted delta: changed=%v err=%v edges %d -> %d", changed, err, edges, v.Edges())
		}
		again := NewVirgin()
		if _, err := again.ApplyDelta(delta(v, NewVirgin())); err != nil {
			t.Fatalf("re-encoded delta rejected: %v", err)
		}
		if again.seen != v.seen || again.Edges() != edges {
			t.Fatal("re-encoded delta builds a different state")
		}
		var snap, resnap checkpoint.Writer
		v.Snapshot(&snap)
		if !bytes.Equal(snap.Data(), delta(v, NewVirgin())) {
			t.Fatal("snapshot differs from the delta against an empty shadow")
		}
		back := NewVirgin()
		r := checkpoint.NewReader(snap.Data())
		if err := back.Restore(r); err != nil || r.Finish() != nil {
			t.Fatalf("snapshot of an accepted state does not restore: %v, %v", err, r.Finish())
		}
		back.Snapshot(&resnap)
		if !bytes.Equal(resnap.Data(), snap.Data()) || back.seen != v.seen || back.Edges() != edges {
			t.Fatal("snapshot → restore → snapshot changed the state or its bytes")
		}
	})
}
