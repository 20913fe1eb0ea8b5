package crash

import (
	"testing"

	"repro/internal/mem"
)

func TestReportDedups(t *testing.T) {
	b := NewBank()
	f := &mem.Fault{Kind: mem.SEGV, Site: "cs101.getCOT"}
	if !b.Report(f, []byte{1}, nil, nil, 10, 111) {
		t.Fatal("first report should be new")
	}
	if b.Report(f, []byte{2}, nil, nil, 20, 222) {
		t.Fatal("same site+kind should dedup")
	}
	if b.Unique() != 1 {
		t.Fatalf("unique = %d", b.Unique())
	}
	r := b.Records()[0]
	if r.Count != 2 || r.FirstExec != 10 || r.Example[0] != 1 {
		t.Fatalf("record = %+v", r)
	}
}

func TestDifferentKindSameSiteIsDistinct(t *testing.T) {
	b := NewBank()
	b.Report(&mem.Fault{Kind: mem.SEGV, Site: "x"}, nil, nil, nil, 1, 0)
	b.Report(&mem.Fault{Kind: mem.HeapUseAfterFree, Site: "x"}, nil, nil, nil, 2, 0)
	if b.Unique() != 2 {
		t.Fatalf("unique = %d, want 2", b.Unique())
	}
}

func TestRecordsOrderedByDiscovery(t *testing.T) {
	b := NewBank()
	b.Report(&mem.Fault{Kind: mem.SEGV, Site: "later"}, nil, nil, nil, 50, 0)
	b.Report(&mem.Fault{Kind: mem.SEGV, Site: "earlier"}, nil, nil, nil, 5, 0)
	recs := b.Records()
	if recs[0].Site != "earlier" || recs[1].Site != "later" {
		t.Fatal("records not ordered by first discovery")
	}
}

func TestHangsCounted(t *testing.T) {
	b := NewBank()
	b.ReportHang(0, nil)
	b.ReportHang(0, nil)
	if b.Hangs() != 2 || b.Unique() != 0 {
		t.Fatalf("hangs = %d unique = %d", b.Hangs(), b.Unique())
	}
}

func TestExampleCopied(t *testing.T) {
	b := NewBank()
	pkt := []byte{1, 2, 3}
	b.Report(&mem.Fault{Kind: mem.SEGV, Site: "s"}, pkt, nil, nil, 1, 0)
	pkt[0] = 99
	if b.Records()[0].Example[0] == 99 {
		t.Fatal("bank aliases caller packet")
	}
}

func TestStringSummary(t *testing.T) {
	b := NewBank()
	if b.String() != "crash.Bank{unique=0 hangs=0}" {
		t.Fatalf("summary = %q", b.String())
	}
}

func TestMergeFromDedupsAcrossBanks(t *testing.T) {
	a, b := NewBank(), NewBank()
	f1 := &mem.Fault{Kind: mem.HeapBufferOverflow, Site: "parse"}
	f2 := &mem.Fault{Kind: mem.SEGV, Site: "dispatch"}
	a.Report(f1, []byte{1}, nil, nil, 10, 0xA)
	a.Report(f1, []byte{2}, nil, nil, 11, 0xA)
	b.Report(f1, []byte{3}, nil, nil, 4, 0xB)
	b.Report(f2, []byte{4}, nil, nil, 9, 0xC)
	b.ReportHang(0, nil)

	if got := a.MergeFrom(b); got != 1 {
		t.Fatalf("merge added %d new faults, want 1", got)
	}
	if got := a.Unique(); got != 2 {
		t.Fatalf("unique after merge = %d, want 2", got)
	}
	if got := a.Hangs(); got != 1 {
		t.Fatalf("hangs after merge = %d, want 1", got)
	}
	recs := a.Records()
	if recs[0].Site != "parse" || recs[0].Count != 3 {
		t.Fatalf("shared fault not summed: %+v", recs[0])
	}
	if recs[0].FirstExec != 4 {
		t.Fatalf("FirstExec = %d, want the earlier 4", recs[0].FirstExec)
	}
	// The example packet and path signature follow the earlier trigger.
	if len(recs[0].Example) != 1 || recs[0].Example[0] != 3 || recs[0].PathSig != 0xB {
		t.Fatalf("example/pathsig not taken from the earlier trigger: %+v", recs[0])
	}
}

func TestConcurrentReportAndSnapshot(t *testing.T) {
	b := NewBank()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			b.Report(&mem.Fault{Kind: mem.SEGV, Site: "s"}, []byte{byte(i)}, nil, nil, i, 1)
			if i%3 == 0 {
				b.ReportHang(0, nil)
			}
		}
	}()
	for i := 0; i < 100; i++ {
		_ = b.Records()
		_ = b.Unique()
	}
	<-done
	if b.Unique() != 1 {
		t.Fatalf("unique = %d, want 1", b.Unique())
	}
}

// TestAbsorbIsIdempotent covers the network-merge path: a reconnecting leaf
// re-sends its records and nothing may double-count.
func TestAbsorbIsIdempotent(t *testing.T) {
	b := NewBank()
	r := &Record{Kind: mem.SEGV, Site: "modbus.readBits", Example: []byte{9}, Count: 3, FirstExec: 50, PathSig: 7}
	if !b.Absorb(r) {
		t.Fatal("first absorb should be new")
	}
	if b.Absorb(r) {
		t.Fatal("re-absorbing the same record should not be new")
	}
	got := b.Records()[0]
	if got.Count != 3 || got.FirstExec != 50 {
		t.Fatalf("record after re-absorb = %+v", got)
	}
	// A later snapshot from the same peer carries a higher count and an
	// earlier first trigger; both converge, neither accumulates.
	b.Absorb(&Record{Kind: mem.SEGV, Site: "modbus.readBits", Example: []byte{4}, Count: 5, FirstExec: 20, PathSig: 9})
	b.Absorb(&Record{Kind: mem.SEGV, Site: "modbus.readBits", Example: []byte{4}, Count: 5, FirstExec: 20, PathSig: 9})
	got = b.Records()[0]
	if got.Count != 5 || got.FirstExec != 20 || got.Example[0] != 4 || got.PathSig != 9 {
		t.Fatalf("converged record = %+v", got)
	}
	if b.Unique() != 1 {
		t.Fatalf("unique = %d", b.Unique())
	}
}

// TestAbsorbCopiesRecord: the bank must detach from the caller's buffers.
func TestAbsorbCopiesRecord(t *testing.T) {
	b := NewBank()
	ex := []byte{1, 2, 3}
	r := &Record{Kind: mem.SEGV, Site: "s", Example: ex, Count: 1, FirstExec: 1}
	b.Absorb(r)
	ex[0] = 99
	r.Count = 42
	if got := b.Records()[0]; got.Example[0] != 1 || got.Count != 1 {
		t.Fatalf("bank aliased the caller's record: %+v", got)
	}
}
