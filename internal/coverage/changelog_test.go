package coverage

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/checkpoint"
)

// mergeModel runs one operation sequence over three accumulators and,
// beside them, over three references that take the same operations
// through the dense scans (denseMergeVirgin, denseWriteDelta). Every
// pair of accumulators is linked twice: by MergeVirgin, with the cursor
// the last merge returned held and the one before it kept as a stale
// one, and by deltas, with a shadow at each end the way a fleetnet
// session keeps them.
type mergeModel struct {
	t        *testing.T
	v, ref   [3]*Virgin
	merged   [3][3]Cursor // merged[x][y]: the held cursor of merges of y into x
	stale    [3][3]Cursor // the cursor merged[x][y] replaced
	shadow   [3][3]*Virgin
	dshadow  [3][3]*Virgin // the references' shadows
	sent     [3][3]Cursor  // sent[x][y]: x's cursor for its deltas into shadow[x][y]
	rand     *rand.Rand
	rawTrace [MapSize]byte
}

func newMergeModel(t *testing.T, seed int64) *mergeModel {
	m := &mergeModel{t: t, rand: rand.New(rand.NewSource(seed))}
	for x := range m.v {
		m.v[x], m.ref[x] = NewVirgin(), NewVirgin()
		for y := range m.shadow[x] {
			m.shadow[x][y], m.dshadow[x][y] = NewVirgin(), NewVirgin()
		}
	}
	return m
}

// step decodes one operation from op (and, for a trace, n) and runs it
// on both sides, then checks them equal.
func (m *mergeModel) step(op, n byte) {
	x := int(op/8) % 3
	y := (x + 1 + int(op/24)%2) % 3
	switch op % 8 {
	case 0, 1: // a tracer merged by the engine's per-execution step
		tr := NewTracer()
		for k := 0; k < 1+int(n%48); k++ {
			tr.Hit(BlockID(m.rand.Intn(1 << 11)))
		}
		m.rawTrace = tr.buf
		got, _, _ := m.v[x].Consume(tr, nil, nil)
		if want := m.ref[x].Merge(m.rawTrace[:]); got != want {
			m.t.Fatalf("Consume into %d = %v, byte reference = %v", x, got, want)
		}
	case 2, 3: // y merged into x from the held or the stale cursor
		from := m.merged[x][y]
		if op%8 == 3 {
			from = m.stale[x][y]
		}
		next, got := m.v[x].MergeVirgin(m.v[y], from)
		if want := denseMergeVirgin(m.ref[x], m.ref[y]); got != want {
			m.t.Fatalf("MergeVirgin(%d into %d) = %v, dense = %v", y, x, got, want)
		}
		m.stale[x][y], m.merged[x][y] = m.merged[x][y], next
	case 4, 5: // a delta from x to y over their link
		var w, dw checkpoint.Writer
		m.sent[x][y] = m.v[x].WriteDelta(&w, m.shadow[x][y], m.sent[x][y])
		denseWriteDelta(&dw, m.ref[x], m.dshadow[x][y])
		if !bytes.Equal(w.Data(), dw.Data()) {
			m.t.Fatalf("WriteDelta(%d to %d) = %x, dense = %x", x, y, w.Data(), dw.Data())
		}
		got, err := m.v[y].ApplyDelta(w.Data())
		want, derr := m.ref[y].ApplyDelta(dw.Data())
		if err != nil || derr != nil || got != want {
			m.t.Fatalf("ApplyDelta into %d = %v, %v; dense = %v, %v", y, got, err, want, derr)
		}
		m.shadow[y][x].ApplyDelta(w.Data())
		m.dshadow[y][x].ApplyDelta(dw.Data())
	case 6: // x reset
		m.v[x].Reset()
		m.ref[x].Reset()
		m.dropLinks(x)
	case 7: // x restored from y's snapshot
		var w, dw checkpoint.Writer
		m.v[y].Snapshot(&w)
		denseWriteDelta(&dw, m.ref[y], nil)
		if !bytes.Equal(w.Data(), dw.Data()) {
			m.t.Fatalf("Snapshot of %d differs from the dense delta against nothing", y)
		}
		if err := m.v[x].Restore(checkpoint.NewReader(w.Data())); err != nil {
			m.t.Fatal(err)
		}
		m.ref[x].Restore(checkpoint.NewReader(dw.Data()))
		m.dropLinks(x)
	}
	m.check(x)
	m.check(y)
}

// dropLinks is what a node that lost its state does to its links: it
// starts every shadow it keeps afresh. Its delta cursors are left as
// they were; they are from the previous log generation now.
func (m *mergeModel) dropLinks(x int) {
	for y := range m.shadow[x] {
		m.shadow[x][y], m.dshadow[x][y] = NewVirgin(), NewVirgin()
	}
}

// check holds accumulator x and its shadows to their references, and its
// Snapshot, the walk of its whole log, to the dense delta against nothing.
// A step touches at most the two accumulators it names.
func (m *mergeModel) check(x int) {
	if m.v[x].seen != m.ref[x].seen || m.v[x].Edges() != m.ref[x].Edges() {
		m.t.Fatalf("accumulator %d diverged from the dense reference (%d edges, %d)", x, m.v[x].Edges(), m.ref[x].Edges())
	}
	for y := range m.shadow[x] {
		if m.shadow[x][y].seen != m.dshadow[x][y].seen || m.shadow[x][y].Edges() != m.dshadow[x][y].Edges() {
			m.t.Fatalf("shadow %d of %d diverged from the dense reference", x, y)
		}
	}
	var w, dw checkpoint.Writer
	m.v[x].Snapshot(&w)
	denseWriteDelta(&dw, m.ref[x], nil)
	if !bytes.Equal(w.Data(), dw.Data()) {
		m.t.Fatalf("Snapshot of %d differs from the dense delta against nothing", x)
	}
}

// FuzzVirginMerge runs operation sequences over three accumulators —
// tracer merges, MergeVirgin with held and stale cursors, WriteDelta →
// ApplyDelta between shadows, Reset, Snapshot → Restore — and holds every
// change-log walk, its changed verdict and its bytes to the dense scans
// it replaced (see mergeModel).
func FuzzVirginMerge(f *testing.F) {
	f.Add([]byte{0, 9, 8, 40, 2, 0, 4, 0, 12, 0, 3, 0}, int64(1))
	f.Add([]byte{0, 47, 1, 47, 4, 0, 5, 0, 6, 0, 4, 0, 26, 0, 28, 0}, int64(2))
	f.Add([]byte{0, 20, 8, 20, 16, 20, 15, 0, 2, 0, 7, 0, 2, 0, 3, 0, 4, 0, 14, 0}, int64(3))
	seq := make([]byte, 256)
	rand.New(rand.NewSource(4)).Read(seq)
	f.Add(seq, int64(4))
	f.Fuzz(func(t *testing.T, ops []byte, seed int64) {
		m := newMergeModel(t, seed)
		for i := 0; i+1 < len(ops) && i < 128; i += 2 {
			m.step(ops[i], ops[i+1])
		}
	})
}

// BenchmarkMergeVirginSteady is a fleet worker's merge window when the
// window found nothing new: the cursor is at the end of a 50-execution
// accumulator's log.
func BenchmarkMergeVirginSteady(b *testing.B) {
	o := randomVirgin(rand.New(rand.NewSource(7)), 50)
	v := NewVirgin()
	next, _ := v.MergeVirgin(o, Cursor{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.MergeVirgin(o, next)
	}
}
