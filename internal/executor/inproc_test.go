// The in-process runner's tests live outside the package: panicSite skips
// every repro/internal/executor frame, so a fault planted in a target
// declared inside the package would be attributed to the test harness.
package executor_test

import (
	"testing"

	"repro/internal/coverage"
	"repro/internal/executor"
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

func run(t *testing.T, x *executor.InProc, packet []byte) executor.Result {
	t.Helper()
	res, err := x.Run(packet)
	if err != nil {
		t.Fatalf("InProc.Run error: %v", err)
	}
	return res
}

func TestRunOK(t *testing.T) {
	x := executor.NewInProc(&scriptTarget{mode: "ok"})
	res := run(t, x, []byte{1})
	if res.Outcome != executor.OK || res.Fault != nil {
		t.Fatalf("res = %+v", res)
	}
	if x.Tracer().PathHash() == 0 {
		t.Fatal("path signature should be non-zero for a non-empty map")
	}
}

func TestRunMemFault(t *testing.T) {
	res := run(t, executor.NewInProc(&scriptTarget{mode: "memfault"}), nil)
	if res.Outcome != executor.Crash {
		t.Fatalf("outcome = %v, want crash", res.Outcome)
	}
	if res.Fault == nil || res.Fault.Kind != mem.HeapUseAfterFree {
		t.Fatalf("fault = %+v", res.Fault)
	}
	if res.Fault.Site != "script.uaf" {
		t.Fatalf("site = %q", res.Fault.Site)
	}
}

// TestRunNativeFault requires the dedup key to be the faulting target
// function itself — not a runtime or executor frame, and not a frame
// further up the stack.
func TestRunNativeFault(t *testing.T) {
	res := run(t, executor.NewInProc(&scriptTarget{mode: "native"}), nil)
	if res.Outcome != executor.Crash || res.Fault == nil || res.Fault.Kind != mem.SEGV {
		t.Fatalf("res = %+v fault = %+v", res, res.Fault)
	}
	if want := "repro/internal/executor_test.(*scriptTarget).Handle"; res.Fault.Site != want {
		t.Fatalf("native fault site = %q, want %q", res.Fault.Site, want)
	}
}

func TestRunStringPanic(t *testing.T) {
	res := run(t, executor.NewInProc(&scriptTarget{mode: "strpanic"}), nil)
	if res.Outcome != executor.Crash || res.Fault == nil || res.Fault.Kind != mem.SEGV {
		t.Fatalf("res = %+v", res)
	}
}

func TestRunnerRecoversAcrossRuns(t *testing.T) {
	tgt := &scriptTarget{mode: "native"}
	x := executor.NewInProc(tgt)
	if res := run(t, x, nil); res.Outcome != executor.Crash {
		t.Fatal("expected crash")
	}
	tgt.mode = "ok"
	if res := run(t, x, []byte{1}); res.Outcome != executor.OK {
		t.Fatal("runner should be reusable after a crash")
	}
}

func TestPathSigSameForSameTrace(t *testing.T) {
	x := executor.NewInProc(&scriptTarget{mode: "ok"})
	sig := func(pkt []byte) uint64 {
		run(t, x, pkt)
		return x.Tracer().PathHash()
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
	if executor.OK.String() != "ok" || executor.Crash.String() != "crash" || executor.Hang.String() != "hang" {
		t.Fatal("outcome names wrong")
	}
	if executor.Outcome(9).String() == "" {
		t.Fatal("unknown outcome should still format")
	}
}
