package targets_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/datamodel"
	"repro/internal/mutator"
	"repro/internal/rng"
	"repro/internal/targets"
)

// This file holds the differential oracle for datamodel's compiled fixup
// plan: the string-resolving File Fixup the plan replaced, same algorithm but
// written against the exported API only, so it can sit here, where all six
// targets' model sets are importable without a cycle. The plan must produce
// the same bytes and the same verdicts on every instance, odd ones included,
// through both of its entry points: the tree one (Model.ApplyFixups) and the
// engine's draft one (a sealed base, then per packet Draft.Reset → leaf
// edits → Draft.ApplyFixups → Render).

func refWidthMask(width int) uint64 {
	if width >= 8 {
		return ^uint64(0)
	}
	return (1 << (8 * width)) - 1
}

// referenceApplyFixups is the former ApplyFixups: two whole-tree relation
// passes, then checksums, every target resolved by name with Node.Find.
func referenceApplyFixups(root *datamodel.Node) {
	for pass := 0; pass < 2; pass++ {
		applyRelations(root, root)
	}
	applyChecksums(root, root)
}

func relationValue(root, n *datamodel.Node) (uint64, bool) {
	rel := n.Chunk.Rel
	target := root.Find(rel.Of)
	if target == nil {
		return 0, false
	}
	var v int
	switch rel.Kind {
	case datamodel.SizeOf:
		v = target.Len()
	case datamodel.CountOf:
		v = len(target.Children)
	case datamodel.OffsetOf:
		v = offsetOf(root, target)
	}
	v += rel.Adjust
	if v < 0 {
		v = 0
	}
	return uint64(v) & refWidthMask(n.Chunk.Width), true
}

func applyRelations(root, n *datamodel.Node) {
	if n.Chunk.Rel != nil && n.Chunk.Kind == datamodel.Number {
		if v, ok := relationValue(root, n); ok {
			n.SetUint(v)
		}
	}
	for _, c := range n.Children {
		applyRelations(root, c)
	}
}

func offsetOf(root, target *datamodel.Node) int {
	off, found := 0, false
	var rec func(n *datamodel.Node)
	rec = func(n *datamodel.Node) {
		if found || n == target {
			found = true
			return
		}
		if n.IsLeaf() {
			off += len(n.Data)
			return
		}
		for _, c := range n.Children {
			rec(c)
			if found {
				return
			}
		}
	}
	rec(root)
	if !found {
		return 0
	}
	return off
}

func covered(root, n *datamodel.Node) []byte {
	var out []byte
	for _, name := range n.Chunk.Fix.Over {
		if t := root.Find(name); t != nil {
			out = append(out, t.Bytes()...)
		}
	}
	return out
}

// blobSum is what a Blob fixup field of the given size must hold: the sum
// big-endian in the last 8 bytes (its low bytes when narrower), zeros
// before. The parent commit panicked past 8 bytes; this is the fixed rule.
func blobSum(size int, sum uint64) []byte {
	out := make([]byte, size)
	for i := size - 1; i >= 0 && i >= size-8; i-- {
		out[i] = byte(sum)
		sum >>= 8
	}
	return out
}

func applyChecksums(root, n *datamodel.Node) {
	for _, c := range n.Children {
		applyChecksums(root, c)
	}
	if n.Chunk.Fix == nil {
		return
	}
	sum := datamodel.Checksum(n.Chunk.Fix.Kind, covered(root, n))
	switch n.Chunk.Kind {
	case datamodel.Number:
		n.SetUint(sum & refWidthMask(n.Chunk.Width))
	case datamodel.Blob:
		copy(n.Data, blobSum(len(n.Data), sum))
	}
}

// referenceVerifyFixups is the former VerifyFixups.
func referenceVerifyFixups(root *datamodel.Node) bool {
	ok := true
	var rec func(n *datamodel.Node)
	rec = func(n *datamodel.Node) {
		if n.Chunk.Rel != nil && n.Chunk.Kind == datamodel.Number {
			if v, bound := relationValue(root, n); bound && n.Uint() != v {
				ok = false
			}
		}
		if n.Chunk.Fix != nil {
			sum := datamodel.Checksum(n.Chunk.Fix.Kind, covered(root, n))
			if n.Chunk.Kind == datamodel.Number {
				if n.Uint() != sum&refWidthMask(len(n.Data)) {
					ok = false
				}
			} else if !bytes.Equal(n.Data, blobSum(len(n.Data), sum)) {
				ok = false
			}
		}
		for _, c := range n.Children {
			rec(c)
		}
	}
	rec(root)
	return ok
}

// shapeModels copies the shapes of datamodel's fuzzModels and adds the ones
// the binding rule is subtle on: an offset-of, a name only one Choice
// alternative carries, an Array whose element holds an inner size-of, a
// Blob fixup wider than 8 bytes, a name shared by a block and its child.
// The last model is never passed to Validate, so its plan compiles lazily.
func shapeModels() []*datamodel.Model {
	dm := datamodel.NewModel
	num, blk := datamodel.Num, datamodel.Blk
	return []*datamodel.Model{
		dm("M",
			num("ID", 2, 0x5249),
			num("Size", 2, 0).WithRel(datamodel.SizeOf, "Data", 0),
			blk("Data",
				num("CompressionCode", 2, 1),
				num("SampleRate", 4, 44100),
				datamodel.BytesVar("ExtraData", 0, 16, []byte{0xde, 0xad}),
			),
			num("CRC", 4, 0).WithFix(datamodel.CRC32IEEE, "ID", "Size", "Data"),
		),
		dm("rel-chain",
			num("op", 1, 0x10).AsToken(),
			num("len", 2, 0).WithRel(datamodel.SizeOf, "body", 0),
			blk("body",
				num("addr", 2, 0),
				datamodel.BytesVar("data", 1, 32, []byte{1}),
			),
			num("crc", 2, 0).WithFix(datamodel.CRC16Modbus, "op", "len", "body"),
		),
		dm("choice-arr",
			num("n", 1, 0).WithRel(datamodel.CountOf, "items", 0),
			datamodel.Rep("items", blk("item", num("t", 1, 0).WithLegal(1, 2), num("v", 2, 0)), 6),
		),
		dm("offsets",
			datamodel.NumLE("off", 2, 0).WithRel(datamodel.OffsetOf, "tail", 1),
			num("hdrLen", 1, 0).WithRel(datamodel.SizeOf, "hdr", 0),
			datamodel.BytesVar("hdr", 0, 12, []byte{9, 9}),
			blk("tail", num("tailOff", 1, 0).WithRel(datamodel.OffsetOf, "end", 0), datamodel.BytesVar("pad", 0, 5, nil), num("end", 1, 0xEE)),
			datamodel.NumLE("lrc", 1, 0).WithFix(datamodel.LRC, "hdr", "tail"),
		),
		dm("choice-absent",
			num("len", 2, 7).WithRel(datamodel.SizeOf, "only-b", 0),
			datamodel.Alt("alt", blk("a", num("x", 1, 1)), blk("b", datamodel.BytesVar("only-b", 1, 9, []byte{1, 2, 3}))),
			num("sum", 1, 0).WithFix(datamodel.Sum8, "only-b", "alt"),
		),
		dm("inner-sizeof",
			num("count", 1, 0).WithRel(datamodel.CountOf, "elems", 0),
			datamodel.Rep("elems", blk("elem",
				num("elemLen", 1, 0).WithRel(datamodel.SizeOf, "elemVal", 0),
				datamodel.BytesVar("elemVal", 0, 6, []byte{7}),
			), 5),
			datamodel.NumLE("crc", 2, 0).WithFix(datamodel.CRC16DNP, "count", "elems"),
		),
		dm("wide-blob-sum",
			datamodel.BytesVar("payload", 0, 20, []byte{1, 2, 3, 4}),
			datamodel.Bytes("sum", 12, nil).WithFix(datamodel.CRC32IEEE, "payload"),
			datamodel.Bytes("short", 3, nil).WithFix(datamodel.CRC32IEEE, "payload", "sum"),
		),
		dm("shadow",
			num("len", 1, 0).WithRel(datamodel.SizeOf, "dup", 0),
			blk("dup", num("dup", 2, 5), datamodel.BytesVar("more", 0, 4, []byte{1})),
		),
		{Name: "lazy", Fields: []*datamodel.Chunk{
			num("len", 4, 0).WithRel(datamodel.SizeOf, "body", 2),
			blk("body", datamodel.StrVar("s", 1, 10, "abc")),
			num("crc", 4, 0).WithFix(datamodel.CRC32IEEE, "len", "body"),
		}},
	}
}

// oracleModels is every model the oracle runs: the six targets' sets plus
// the shapes. Index order is stable, so a fuzz input picks the same model
// on every run.
func oracleModels(tb testing.TB) []*datamodel.Model {
	var all []*datamodel.Model
	for _, name := range targets.Names() {
		tgt, err := targets.New(name)
		if err != nil {
			tb.Fatal(err)
		}
		all = append(all, tgt.Models()...)
	}
	return append(all, shapeModels()...)
}

var oracleSuite = mutator.Suite()

// oracleDonor stands for a corpus puzzle: the engine aliases donor bytes into
// a leaf without copying, so nothing downstream may write through them.
var oracleDonor = []byte{0xd0, 0x0d, 0xfe, 0xed, 0x01}

// structural reports whether the op changes the tree's shape (perturb) or
// only leaf content (perturbLeaves).
func structural(op byte) bool { return op&7 >= 6 }

// perturb damages the instance the way one op byte says: the low bits pick
// the action, the rest the node it lands on.
func perturb(r *rng.RNG, m *datamodel.Model, root *datamodel.Node, op byte) {
	switch op & 7 {
	case 6: // swap a block for its chunk's subtree in the default instance
		graft(m, root, int(op>>3))
	case 7: // drop or duplicate an array element
		resizeArray(root, int(op>>3))
	default:
		perturbLeaves(r, treeLeaves(root.Leaves(nil)), op)
	}
}

// leafTable is what a content op edits: a tree's leaves, or a draft.
type leafTable interface {
	Len() int
	Chunk(i int) *datamodel.Chunk
	Data(i int) []byte
	Set(i int, data []byte)
}

// treeLeaves is a tree's leaf table; Set repoints the leaf.
type treeLeaves []*datamodel.Node

func (t treeLeaves) Len() int                     { return len(t) }
func (t treeLeaves) Chunk(i int) *datamodel.Chunk { return t[i].Chunk }
func (t treeLeaves) Data(i int) []byte            { return t[i].Data }
func (t treeLeaves) Set(i int, data []byte)       { t[i].Data = data }

// perturbLeaves is perturb's content half — everything the engine does to an
// instance between picking a skeleton and File Fixup — on a leaf table.
func perturbLeaves(r *rng.RNG, leaves leafTable, op byte) {
	if leaves.Len() == 0 {
		return
	}
	i := int(op>>3) % leaves.Len()
	c := leaves.Chunk(i)
	switch op & 7 {
	case 0, 1: // the engine's mutateLeaf
		if m := mutator.Pick(r, oracleSuite, c); m != nil {
			leaves.Set(i, m.Mutate(r, c, leaves.Data(i), nil))
		}
	case 2: // a donor aliased into a donatable leaf
		if c.Rel == nil && c.Fix == nil {
			leaves.Set(i, oracleDonor[:1+int(op>>3)%len(oracleDonor)])
		}
	case 3, 4, 5: // resize a relation or fixup field away from its width
		var fields []int
		for j := 0; j < leaves.Len(); j++ {
			if c := leaves.Chunk(j); c.Rel != nil || c.Fix != nil {
				fields = append(fields, j)
			}
		}
		if len(fields) == 0 {
			return
		}
		f := fields[int(op>>3)%len(fields)]
		data := make([]byte, []int{0, 1, leaves.Chunk(f).Width + 3}[op&7-3])
		for k := range data {
			data[k] = r.Byte()
		}
		leaves.Set(f, data)
	}
}

// interior lists the non-leaf nodes below root with their parents.
func interior(n *datamodel.Node, out [][2]*datamodel.Node) [][2]*datamodel.Node {
	for _, c := range n.Children {
		if !c.IsLeaf() {
			out = append(out, [2]*datamodel.Node{n, c})
			out = interior(c, out)
		}
	}
	return out
}

// graft replaces one interior node with the first node of the same chunk in
// the model's default instance: a subtree built apart from the rest of the
// instance, whose array counts, choice picks and sizes may differ from the
// one it replaces.
func graft(m *datamodel.Model, root *datamodel.Node, pick int) {
	pairs := interior(root, nil)
	if len(pairs) == 0 {
		return
	}
	parent, old := pairs[pick%len(pairs)][0], pairs[pick%len(pairs)][1]
	var sub *datamodel.Node
	for _, p := range interior(m.Generate(), nil) {
		if p[1].Chunk == old.Chunk {
			sub = p[1]
			break
		}
	}
	if sub == nil {
		return // the default instance has no such block (an empty array)
	}
	for i, c := range parent.Children {
		if c == old {
			parent.Children[i] = sub
		}
	}
}

func resizeArray(root *datamodel.Node, pick int) {
	var arrays []*datamodel.Node
	for _, p := range interior(root, nil) {
		if p[1].Chunk.Kind == datamodel.Array {
			arrays = append(arrays, p[1])
		}
	}
	if len(arrays) == 0 {
		return
	}
	a := arrays[pick%len(arrays)]
	if len(a.Children) == 0 {
		return
	}
	if pick&1 == 0 {
		a.Children = a.Children[1:]
	} else {
		a.Children = append(a.Children, a.Children[0].Clone())
	}
}

// checkAgainstReference asserts the plan and the reference agree on inst:
// the verdict on it as it stands, the bytes after fixing it up, the verdict
// on the result, and that a second ApplyFixups changes nothing.
func checkAgainstReference(tb testing.TB, m *datamodel.Model, inst *datamodel.Node, what string) {
	tb.Helper()
	before := inst.Bytes()
	if got, want := m.VerifyFixups(inst), referenceVerifyFixups(inst); got != want {
		tb.Fatalf("%s/%s: VerifyFixups = %v, reference %v (pkt %x)", m.Name, what, got, want, before)
	}
	ref := inst.Clone()
	m.ApplyFixups(inst)
	referenceApplyFixups(ref)
	got, want := inst.Bytes(), ref.Bytes()
	if !bytes.Equal(got, want) {
		tb.Fatalf("%s/%s: ApplyFixups on %x\n  plan      %x\n  reference %x", m.Name, what, before, got, want)
	}
	if a, b := m.VerifyFixups(inst), referenceVerifyFixups(inst); a != b {
		tb.Fatalf("%s/%s: after fixups VerifyFixups = %v, reference %v (pkt %x)", m.Name, what, a, b, got)
	}
	m.ApplyFixups(inst)
	if again := inst.Bytes(); !bytes.Equal(again, got) {
		tb.Fatalf("%s/%s: ApplyFixups twice %x, once %x", m.Name, what, again, got)
	}
}

var oracleArena datamodel.Arena

// checkFlatAgainstReference holds the engine's path to the same reference:
// a copy of base, fixed up by the reference, is flattened and sealed once,
// as a retained instance is; a draft of it takes the content ops, is fixed
// up and rendered, and must give the reference's bytes for a clone of the
// sealed base that took the same ops — once, and again after a second
// fixup. Neither the base nor the donor bytes may change under it.
func checkFlatAgainstReference(tb testing.TB, m *datamodel.Model, base *datamodel.Node, seed uint64, ops []byte, what string) {
	tb.Helper()
	base = base.Clone()
	referenceApplyFixups(base)
	var src datamodel.Flat
	m.Flatten(&src, base).Seal()
	before, donor := base.Bytes(), bytes.Clone(oracleDonor)
	var d datamodel.Draft
	d.Reset(&src)
	ref := base.Clone()
	ra, rb := rng.New(seed), rng.New(seed)
	for _, op := range ops {
		perturbLeaves(ra, &d, op)
		perturbLeaves(rb, treeLeaves(ref.Leaves(nil)), op)
	}
	edited := ref.Bytes()
	oracleArena.Reset()
	d.ApplyFixups()
	referenceApplyFixups(ref)
	got, want := d.Render(&oracleArena), ref.Bytes()
	if !bytes.Equal(got, want) {
		tb.Fatalf("%s/%s: draft ApplyFixups on %x\n  draft     %x\n  reference %x", m.Name, what, edited, got, want)
	}
	d.ApplyFixups()
	if again := d.Render(nil); !bytes.Equal(again, got) {
		tb.Fatalf("%s/%s: draft ApplyFixups twice %x, once %x", m.Name, what, again, got)
	}
	if after := base.Bytes(); !bytes.Equal(after, before) || !bytes.Equal(src.Wire(), before) || !bytes.Equal(oracleDonor, donor) {
		tb.Fatalf("%s/%s: fixing up a draft wrote through: base %x → %x (wire %x), donor %x → %x",
			m.Name, what, before, after, src.Wire(), donor, oracleDonor)
	}
}

// TestFixupPlanMatchesReference is the differential oracle over every
// target's models and the shapes: default and random instances, as generated
// and after one to three perturbations of each kind. The draft path takes
// the same instances: a structural perturbation lands on the tree before it
// is sealed, a content one on the draft.
func TestFixupPlanMatchesReference(t *testing.T) {
	random := 200
	if testing.Short() {
		random = 20
	}
	for mi, m := range oracleModels(t) {
		checkFlatAgainstReference(t, m, m.Generate(), 0, nil, "default")
		checkAgainstReference(t, m, m.Generate(), "default")
		r := rng.New(uint64(mi) + 1)
		for i := 0; i < random; i++ {
			base := m.GenerateRandomFlat(new(datamodel.Flat), nil, r)
			checkFlatAgainstReference(t, m, base, 0, nil, fmt.Sprintf("random %d", i))
			checkAgainstReference(t, m, base.Clone(), fmt.Sprintf("random %d", i))
			for action := byte(0); action < 8; action++ {
				what := fmt.Sprintf("random %d action %d", i, action)
				inst, flatBase := base.Clone(), base.Clone()
				var ops []byte
				for k := r.Range(1, 3); k > 0; k-- {
					ops = append(ops, byte(r.Intn(32))<<3|action)
				}
				seed := r.Uint64()
				ra := rng.New(seed)
				for _, op := range ops {
					perturb(ra, m, inst, op)
				}
				if structural(action) {
					for _, op := range ops {
						perturb(nil, m, flatBase, op)
					}
					ops = nil
				}
				checkFlatAgainstReference(t, m, flatBase, seed, ops, what)
				checkAgainstReference(t, m, inst, what)
			}
		}
	}
}

// FuzzFixupPlan lets the fuzzer pick the model, the instance and the damage.
func FuzzFixupPlan(f *testing.F) {
	f.Add(uint16(0), uint64(1), []byte{})
	f.Add(uint16(3), uint64(2), []byte{0x0b, 0x13, 0x1c})
	f.Add(uint16(40), uint64(3), []byte{0x06, 0x07, 0xff, 0x25})
	models := oracleModels(f)
	f.Fuzz(func(t *testing.T, which uint16, seed uint64, ops []byte) {
		m := models[int(which)%len(models)]
		r := rng.New(seed)
		inst := m.Generate()
		if seed&1 == 1 {
			inst = m.GenerateRandomFlat(new(datamodel.Flat), nil, r)
		}
		if len(ops) > 16 {
			ops = ops[:16]
		}
		// The draft path takes the structural ops on the tree it seals
		// and the content ops on the draft.
		flatBase := inst.Clone()
		var content []byte
		for _, op := range ops {
			perturb(r, m, inst, op)
			if structural(op) {
				perturb(nil, m, flatBase, op)
			} else {
				content = append(content, op)
			}
		}
		checkFlatAgainstReference(t, m, flatBase, seed, content, "fuzz")
		checkAgainstReference(t, m, inst, "fuzz")
	})
}

// draftBase builds one of the bases the engine drafts from, by kind: the
// model's default instance (0), a randomized one (1) or the retained clone
// of a cracked one (2, falling back to the default when the randomized
// instance does not crack). It returns the sealed base and a tree whose
// leaves line up with the base's, fixed up by the reference.
func draftBase(m *datamodel.Model, kind byte, r *rng.RNG) (*datamodel.Flat, *datamodel.Node) {
	switch kind % 3 {
	case 1:
		f := new(datamodel.Flat)
		return f, m.GenerateRandomFlat(f, nil, r).Clone()
	case 2:
		var c datamodel.Cracker
		for _, pkt := range [][]byte{m.GenerateRandomFlat(new(datamodel.Flat), nil, r).Bytes(), m.DefaultFlat().Wire()} {
			if tree, err := m.Crack(pkt); err == nil && c.Crack(m, pkt) {
				return c.Flat().Clone(), tree
			}
		}
	}
	return m.DefaultFlat(), m.Generate()
}

// FuzzDraftFixups runs edit sequences on a draft of a sealed base and holds
// every render to a materialized reference: a tree of the same base that
// takes the same edits and the reference File Fixup. Besides the content
// ops of perturbLeaves (mutators, donors, relation and checksum fields
// resized), an op can grow any leaf by a byte, restore a leaf's base bytes,
// or end a round — fixup, render, compare — after which the edits go on,
// from where they are or from a reset draft, as a semantic batch's do.
func FuzzDraftFixups(f *testing.F) {
	f.Add(uint16(0), uint64(1), byte(0), []byte{})
	f.Add(uint16(3), uint64(2), byte(1), []byte{0x0b, 0x16, 0x07, 0x1e, 0x0f, 0x2c})
	f.Add(uint16(40), uint64(3), byte(2), []byte{0x03, 0x07, 0x2e, 0x11, 0x0f, 0x04, 0x06})
	models := oracleModels(f)
	f.Fuzz(func(t *testing.T, which uint16, seed uint64, kind byte, ops []byte) {
		m := models[int(which)%len(models)]
		r := rng.New(seed)
		base, tree := draftBase(m, kind, r)
		referenceApplyFixups(tree)
		if !bytes.Equal(tree.Bytes(), base.Wire()) {
			t.Fatalf("%s: base %x is not the reference's fixed point %x", m.Name, base.Wire(), tree.Bytes())
		}
		if len(ops) > 32 {
			ops = ops[:32]
		}
		var d datamodel.Draft
		d.Reset(base)
		if d.Len() == 0 {
			return
		}
		before := joinLeaves(base)
		ref := tree.Clone()
		ra, rb := rng.New(seed), rng.New(seed)
		round := func(op byte) {
			d.ApplyFixups()
			referenceApplyFixups(ref)
			if got, want := d.Render(nil), ref.Bytes(); !bytes.Equal(got, want) {
				t.Fatalf("%s: after ops %x (op %#x)\n  draft     %x\n  reference %x", m.Name, ops, op, got, want)
			}
		}
		for _, op := range ops {
			leaves := treeLeaves(ref.Leaves(nil))
			i := int(op>>4) % d.Len()
			switch {
			case op&7 < 6:
				perturbLeaves(ra, &d, op)
				perturbLeaves(rb, leaves, op)
			case op&15 == 6: // a length change on any leaf
				grown := append(bytes.Clone(d.Data(i)), byte(op))
				d.Set(i, grown)
				leaves.Set(i, bytes.Clone(grown))
			case op&15 == 14: // an edit that restores the base's bytes
				d.Set(i, base.Leaves[i].Data)
				leaves.Set(i, bytes.Clone(base.Leaves[i].Data))
			default: // a round; then every other one resets the draft
				round(op)
				if op&8 != 0 {
					d.Reset(base)
					ref = tree.Clone()
				}
			}
		}
		round(0)
		if !bytes.Equal(joinLeaves(base), before) || !bytes.Equal(base.Wire(), before) {
			t.Fatalf("%s: drafting wrote through to the base: %x (wire %x), was %x", m.Name, joinLeaves(base), base.Wire(), before)
		}
	})
}

// TestSealedBasesAreFixedPoints: a Draft skips every relation and checksum
// no edit reaches, which is sound only on a base that File Fixup leaves as
// it is, with every relation field Width bytes long. The engine drafts from
// four kinds of base; each must be one, on every model of the six targets.
func TestSealedBasesAreFixedPoints(t *testing.T) {
	for _, name := range targets.Names() {
		tgt, err := targets.New(name)
		if err != nil {
			t.Fatal(err)
		}
		for mi, m := range tgt.Models() {
			r := rng.New(uint64(mi) + 1)
			checkFixedPoint(t, m.DefaultFlat(), m.Name+"/default")
			var c datamodel.Cracker
			for i := 0; i < 20; i++ {
				var f datamodel.Flat
				pkt := m.GenerateRandomFlat(&f, nil, r).Bytes()
				checkFixedPoint(t, &f, fmt.Sprintf("%s/random %d", m.Name, i))
				if c.Crack(m, pkt) {
					checkFixedPoint(t, c.Flat(), fmt.Sprintf("%s/cracked %d", m.Name, i))
					checkFixedPoint(t, c.Flat().Clone(), fmt.Sprintf("%s/retained %d", m.Name, i))
				}
			}
		}
	}
}

// joinLeaves is f's leaves' bytes, joined.
func joinLeaves(f *datamodel.Flat) []byte {
	var out []byte
	for _, n := range f.Leaves {
		out = append(out, n.Data...)
	}
	return out
}

// checkFixedPoint fails unless sealed base f renders as its leaves join,
// holds every relation field at its Width, and comes out of ApplyFixups
// (run on a clone, so shared bases stay untouched) byte-identical.
func checkFixedPoint(t *testing.T, f *datamodel.Flat, what string) {
	t.Helper()
	for _, n := range f.Leaves {
		if c := n.Chunk; c.Rel != nil && c.Kind == datamodel.Number && len(n.Data) != c.Width {
			t.Fatalf("%s: relation field %s is %d bytes, width %d", what, c.Name, len(n.Data), c.Width)
		}
	}
	if joined := joinLeaves(f); !bytes.Equal(joined, f.Wire()) {
		t.Fatalf("%s: sealed wire %x, leaves join to %x", what, f.Wire(), joined)
	}
	g := f.Clone()
	g.ApplyFixups()
	if got := g.Seal().Wire(); !bytes.Equal(got, f.Wire()) {
		t.Fatalf("%s: not a fixed point of ApplyFixups: %x → %x", what, f.Wire(), got)
	}
}

var verifySink bool

// benchFixups runs f over the default instance of every model of each of
// the six targets, one sub-benchmark per target; an op is one pass over the
// target's whole model set.
func benchFixups(b *testing.B, f func(m *datamodel.Model, inst *datamodel.Node)) {
	for _, name := range targets.Names() {
		tgt, err := targets.New(name)
		if err != nil {
			b.Fatal(err)
		}
		models := tgt.Models()
		insts := make([]*datamodel.Node, len(models))
		for i, m := range models {
			insts[i] = m.Generate()
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j, m := range models {
					f(m, insts[j])
				}
			}
		})
	}
}

func BenchmarkApplyFixups(b *testing.B) {
	benchFixups(b, func(m *datamodel.Model, inst *datamodel.Node) { m.ApplyFixups(inst) })
}

func BenchmarkVerifyFixups(b *testing.B) {
	benchFixups(b, func(m *datamodel.Model, inst *datamodel.Node) { verifySink = m.VerifyFixups(inst) })
}
