// Package snapdemo is snapfields testdata: a checkpointed type's fields
// must be referenced by both codec halves, with sync.Mutex and
// //peachstar:nosnap fields exempt, helper-method references followed, both
// naming conventions (Snapshot/Restore, SnapshotState/RestoreState)
// recognised, and a method returning []checkpoint.Field treated as both
// halves at once.
package snapdemo

import (
	"sync"

	"repro/internal/checkpoint"
)

// covered has every field in both halves (the mutex is exempt): clean.
type covered struct {
	mu    sync.Mutex
	execs uint64
	name  string
}

func (c *covered) Snapshot(w *checkpoint.Writer) {
	w.U64(c.execs)
	w.String(c.name)
}

func (c *covered) Restore(r *checkpoint.Reader) {
	c.execs = r.U64()
	c.name = r.String()
}

// dropped.tail is still written by Snapshot but was deleted from Restore —
// the silent warm-restart drift case.
type dropped struct {
	head uint64
	tail uint64 // want `field dropped\.tail is not covered by Restore`
}

func (d *dropped) Snapshot(w *checkpoint.Writer) {
	w.U64(d.head)
	w.U64(d.tail)
}

func (d *dropped) Restore(r *checkpoint.Reader) {
	d.head = r.U64()
}

// missing.skip appears in neither half.
type missing struct {
	kept uint64
	skip uint64 // want `field missing\.skip is not covered by Snapshot or Restore`
}

func (m *missing) Snapshot(w *checkpoint.Writer) { w.U64(m.kept) }
func (m *missing) Restore(r *checkpoint.Reader)  { m.kept = r.U64() }

// excused uses the State-suffixed naming convention and the nosnap escape
// hatch: clean.
type excused struct {
	stored  uint64
	scratch []byte //peachstar:nosnap per-iteration scratch, rebuilt on demand
}

func (e *excused) SnapshotState(w *checkpoint.Writer) { w.U64(e.stored) }
func (e *excused) RestoreState(r *checkpoint.Reader)  { e.stored = r.U64() }

// viaHelper covers one field through a same-receiver helper method, which
// the reference walk must follow: clean.
type viaHelper struct {
	a uint64
	b uint64
}

func (v *viaHelper) Snapshot(w *checkpoint.Writer) {
	w.U64(v.a)
	v.snapRest(w)
}

func (v *viaHelper) snapRest(w *checkpoint.Writer) { w.U64(v.b) }

func (v *viaHelper) Restore(r *checkpoint.Reader) {
	v.a = r.U64()
	v.b = r.U64()
}

// half has only a serialising side — drift enforcement needs both halves,
// so a lone Snapshot is not checked.
type half struct {
	onlyWritten uint64
}

func (h *half) Snapshot(w *checkpoint.Writer) { w.U64(h.onlyWritten) }

// listed declares its state once as a field list, which stands for both
// halves: a field missing from the list is a finding, a //peachstar:nosnap
// field is not.
type listed struct {
	bank    [4]uint16
	flag    bool
	table   map[string]int
	late    uint32 // want `field listed\.late is not covered by StateFields:`
	scratch []byte //peachstar:nosnap per-packet scratch, rebuilt on demand
}

func (l *listed) StateFields() []checkpoint.Field {
	return []checkpoint.Field{
		checkpoint.Uints(l.bank[:]),
		checkpoint.Bool(&l.flag),
		checkpoint.Func(l.snapTable, l.restoreTable), // method values are followed
	}
}

func (l *listed) snapTable(w *checkpoint.Writer) { w.Int(len(l.table)) }

func (l *listed) restoreTable(r *checkpoint.Reader) error {
	l.table = make(map[string]int, r.Count())
	return r.Err()
}
