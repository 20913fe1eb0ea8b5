package crash

import (
	"bytes"
	"encoding/hex"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/mem"
)

// TestBankSnapshotBytesGolden pins the crash bank's checkpoint bytes on
// the shapes in-process images never hold: a record with a reproducer
// sequence and session boundaries, one without (nil Sequence), and hang
// classes, which only a supervised process produces. Records are written
// in fault-identity order, hang classes in first-observation order.
// Restoring the bytes and snapshotting again reproduces them.
func TestBankSnapshotBytesGolden(t *testing.T) {
	const golden = "02" +
		"0453454756" + "066f7468657273" + "0109" + "01" + "03" + "0500000000000000" + "00" +
		"0453454756" + "0473697465" + "020102" + "02" + "07" + "2a00000000000000" +
		"01" + "03" + "0103" + "00" + "020102" + "02" + "0002" +
		"03" +
		"02" + "32" + "02abcd" + "02" + "64" + "01ee" + "01"
	b := NewBank()
	b.Report(&mem.Fault{Kind: mem.SEGV, Site: "site"}, []byte{1, 2}, [][]byte{{3}, nil, {1, 2}}, []int{0, 2}, 7, 42)
	b.Report(&mem.Fault{Kind: mem.SEGV, Site: "site"}, []byte{9}, nil, nil, 8, 43)
	b.Report(&mem.Fault{Kind: mem.SEGV, Site: "others"}, []byte{9}, nil, nil, 3, 5)
	b.ReportHang(50, []byte{0xab, 0xcd})
	b.ReportHang(100, []byte{0xee})
	b.ReportHang(50, []byte{0xab, 0xcd})
	var w checkpoint.Writer
	b.Snapshot(&w)
	if got := hex.EncodeToString(w.Data()); got != golden {
		t.Fatalf("bank snapshot bytes changed:\n got %s\nwant %s", got, golden)
	}
	back := NewBank()
	if err := back.Restore(checkpoint.NewReader(w.Data())); err != nil {
		t.Fatalf("restore: %v", err)
	}
	var again checkpoint.Writer
	back.Snapshot(&again)
	if !bytes.Equal(again.Data(), w.Data()) {
		t.Fatalf("restore → snapshot differs:\n got %x\nwant %x", again.Data(), w.Data())
	}
	back.ReportHang(50, []byte{0xab, 0xcd})
	if hs := back.HangRecords(); back.Hangs() != 4 || len(hs) != 2 || hs[0].Count != 3 {
		t.Fatalf("restored hang index does not match the restored classes: %d hangs, %+v", back.Hangs(), hs)
	}
}

// TestBankRestoreRejects holds one hand-built image per check the bank
// restore makes; each differs from the accepted control image in the one
// value that check refuses.
func TestBankRestoreRejects(t *testing.T) {
	type rec struct {
		site   string
		seq    [][]byte
		starts []int
	}
	image := func(recs []rec, hangs ...string) []byte {
		var w checkpoint.Writer
		w.Int(len(recs))
		for _, r := range recs {
			w.String(string(mem.SEGV))
			w.String(r.site)
			w.Blob([]byte{1})
			w.Int(1)
			w.Int(1)
			w.U64(0)
			w.Bool(r.seq != nil)
			if r.seq != nil {
				w.Int(len(r.seq))
				for _, p := range r.seq {
					w.Blob(p)
				}
				w.Int(len(r.starts))
				for _, s := range r.starts {
					w.Int(s)
				}
			}
		}
		w.Int(len(hangs))
		w.Int(len(hangs))
		for _, h := range hangs {
			w.Int(10)
			w.Blob([]byte(h))
			w.Int(1)
		}
		return w.Data()
	}
	seq := [][]byte{{1}, {2}}
	for _, tc := range []struct {
		name string
		img  []byte
		ok   bool
	}{
		{"control", image([]rec{{site: "a", seq: seq, starts: []int{0, 2}}, {site: "b"}}, "x", "y"), true},
		{"duplicate record", image([]rec{{site: "a"}, {site: "a"}}), false},
		{"session boundary beyond the sequence", image([]rec{{site: "a", seq: seq, starts: []int{0, 3}}}), false},
		{"duplicate hang class", image(nil, "x", "x"), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := NewBank().Restore(checkpoint.NewReader(tc.img))
			if tc.ok && err != nil {
				t.Fatalf("control image refused: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("restore accepted the image")
			}
		})
	}
}
