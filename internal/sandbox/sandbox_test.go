package sandbox

import (
	"testing"

	"repro/internal/coverage"
	"repro/internal/mem"
)

// scriptTarget panics or loops according to its mode.
type scriptTarget struct {
	mode string
	heap *mem.Heap
}

func (s *scriptTarget) Handle(t *coverage.Tracer, packet []byte) {
	t.Hit(1)
	switch s.mode {
	case "ok":
		if len(packet) > 0 {
			t.Hit(2)
		}
	case "memfault":
		s.heap = mem.NewHeap()
		a := s.heap.Alloc(4)
		s.heap.Free(a, "script.free")
		s.heap.Load(a, "script.uaf")
	case "native":
		var p []byte
		_ = p[5] // index out of range
	case "strpanic":
		panic("custom condition")
	}
}

func TestRunOK(t *testing.T) {
	r := NewRunner(&scriptTarget{mode: "ok"})
	res := r.Run([]byte{1})
	if res.Outcome != OK || res.Fault != nil {
		t.Fatalf("res = %+v", res)
	}
	if r.Tracer().PathHash() == 0 {
		t.Fatal("path signature should be non-zero for a non-empty map")
	}
}

func TestRunMemFault(t *testing.T) {
	r := NewRunner(&scriptTarget{mode: "memfault"})
	res := r.Run(nil)
	if res.Outcome != Crash {
		t.Fatalf("outcome = %v, want crash", res.Outcome)
	}
	if res.Fault == nil || res.Fault.Kind != mem.HeapUseAfterFree {
		t.Fatalf("fault = %+v", res.Fault)
	}
	if res.Fault.Site != "script.uaf" {
		t.Fatalf("site = %q", res.Fault.Site)
	}
}

func TestRunNativeFault(t *testing.T) {
	r := NewRunner(&scriptTarget{mode: "native"})
	res := r.Run(nil)
	if res.Outcome != Crash || res.Fault == nil || res.Fault.Kind != mem.SEGV {
		t.Fatalf("res = %+v fault = %+v", res, res.Fault)
	}
	if res.Fault.Site == "" || res.Fault.Site == "unknown" {
		t.Fatalf("native fault site not resolved: %q", res.Fault.Site)
	}
}

func TestRunStringPanic(t *testing.T) {
	r := NewRunner(&scriptTarget{mode: "strpanic"})
	res := r.Run(nil)
	if res.Outcome != Crash || res.Fault == nil || res.Fault.Kind != mem.SEGV {
		t.Fatalf("res = %+v", res)
	}
}

func TestRunnerRecoversAcrossRuns(t *testing.T) {
	tgt := &scriptTarget{mode: "native"}
	r := NewRunner(tgt)
	if res := r.Run(nil); res.Outcome != Crash {
		t.Fatal("expected crash")
	}
	tgt.mode = "ok"
	if res := r.Run([]byte{1}); res.Outcome != OK {
		t.Fatal("runner should be reusable after a crash")
	}
}

func TestPathSigSameForSameTrace(t *testing.T) {
	r := NewRunner(&scriptTarget{mode: "ok"})
	sig := func(pkt []byte) uint64 {
		r.Run(pkt)
		return r.Tracer().PathHash()
	}
	a, b := sig([]byte{1}), sig([]byte{2})
	if a != b {
		t.Fatal("identical traces should produce identical path signatures")
	}
	if c := sig(nil); c == a { // takes the short path: only Hit(1)
		t.Fatal("different traces should (almost surely) differ in signature")
	}
}

func TestOutcomeString(t *testing.T) {
	if OK.String() != "ok" || Crash.String() != "crash" || Hang.String() != "hang" {
		t.Fatal("outcome names wrong")
	}
	if Outcome(9).String() == "" {
		t.Fatal("unknown outcome should still format")
	}
}
