package iec61850

import (
	"fmt"
	"sort"

	"repro/internal/checkpoint"
)

// StateFields implements executor.StateCheckpointer. The IED model's
// *structure* (domains, items, types) is construction-time configuration
// pinned by the campaign digest; what a packet can mutate — attribute
// values, named variable lists, the file-transfer state machines, the
// connection-stack flags and request counters — is what the checkpoint
// carries.
func (s *Server) StateFields() []checkpoint.Field {
	return []checkpoint.Field{
		checkpoint.Bool(&s.cotpConnected),
		checkpoint.Bool(&s.sessionOpen),
		checkpoint.Bool(&s.associated),
		checkpoint.Func(s.snapshotValues, s.restoreValues),
		checkpoint.Map(&s.nvls, checkpoint.StringCodec, checkpoint.ListCodec(checkpoint.StringCodec)),
		checkpoint.Uint(&s.invokeID),
		checkpoint.Int(&s.writes),
		checkpoint.Int(&s.reads),
		checkpoint.Map(&s.fs.frsm, checkpoint.WordCodec[uint32](), frsmCodec),
		checkpoint.Uint(&s.fs.nextFRSM),
	}
}

// snapshotValues writes every attribute value, domains and items in sorted
// name order so the encoding is canonical.
func (s *Server) snapshotValues(w *checkpoint.Writer) {
	doms := make([]string, 0, len(s.domains))
	for d := range s.domains {
		doms = append(doms, d)
	}
	sort.Strings(doms)
	w.Int(len(doms))
	for _, d := range doms {
		items := s.domains[d]
		names := make([]string, 0, len(items))
		for n := range items {
			names = append(names, n)
		}
		sort.Strings(names)
		w.String(d)
		w.Int(len(names))
		for _, n := range names {
			w.String(n)
			w.Blob(items[n].value)
		}
	}
}

// restoreValues overwrites attribute values in place; a checkpoint naming a
// domain or attribute the live model lacks is refused.
func (s *Server) restoreValues(r *checkpoint.Reader) error {
	nd := r.Count()
	for i := 0; i < nd && r.Err() == nil; i++ {
		d := r.String()
		ni := r.Count()
		if r.Err() != nil {
			break
		}
		items, found := s.domains[d]
		if !found {
			return fmt.Errorf("iec61850: checkpoint names unknown domain %q", d)
		}
		for j := 0; j < ni && r.Err() == nil; j++ {
			n := r.String()
			v := r.Blob()
			if r.Err() != nil {
				break
			}
			attr, found := items[n]
			if !found {
				return fmt.Errorf("iec61850: checkpoint names unknown attribute %s/%s", d, n)
			}
			attr.value = v
		}
	}
	return r.Err()
}

// frsmCodec is one open file-transfer state machine.
var frsmCodec = checkpoint.Codec[*frsmEntry]{
	Put: func(w *checkpoint.Writer, e *frsmEntry) { w.String(e.name); w.Int(e.pos) },
	Get: func(r *checkpoint.Reader) *frsmEntry { return &frsmEntry{name: r.String(), pos: r.Int()} },
}
