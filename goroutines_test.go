package repro

import (
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// goroutineStacks returns the live goroutines' stacks keyed by goroutine
// id — every goroutine's, or with all false only the caller's.
func goroutineStacks(all bool) map[uint64]string {
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, all)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, all)
	}
	stacks := make(map[uint64]string)
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		// The header is "goroutine N [status]:".
		head, _, _ := strings.Cut(strings.TrimPrefix(g, "goroutine "), " ")
		if id, err := strconv.ParseUint(head, 10, 64); err == nil {
			stacks[id] = g
		}
	}
	return stacks
}

// liveGoroutines is the set of live goroutines' ids. Ids are never
// reused, so a goroutine missing from the set was started after the call.
func liveGoroutines() map[uint64]bool {
	live := make(map[uint64]bool)
	for id := range goroutineStacks(true) {
		live[id] = true
	}
	return live
}

// runsProjectCode reports whether a stack has a frame in a repro/ package:
// a function line, not a file line or the "created by" line.
func runsProjectCode(stack string) bool {
	for _, line := range strings.Split(stack, "\n") {
		if strings.HasPrefix(line, "repro/") {
			return true
		}
	}
	return false
}

// checkGoroutinesExit fails the test unless every goroutine that is not
// in before (a liveGoroutines set), runs repro/ code and is not the caller
// has exited within the deadline, and prints the stacks of those that
// have not. It checks ownership, not a count: it names the goroutine that
// outlives the session, and ignores runtime and testing goroutines and
// every goroutine that existed before the session.
func checkGoroutinesExit(t *testing.T, before map[uint64]bool, within time.Duration) {
	t.Helper()
	var self uint64
	for id := range goroutineStacks(false) {
		self = id
	}
	deadline := time.Now().Add(within)
	for {
		var leaked []string
		for id, stack := range goroutineStacks(true) {
			if !before[id] && id != self && runsProjectCode(stack) {
				leaked = append(leaked, stack)
			}
		}
		if len(leaked) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("%d goroutines started by the session outlive it by %v:\n\n%s", len(leaked), within, strings.Join(leaked, "\n\n"))
			return
		}
		time.Sleep(time.Millisecond)
	}
}
