// Package leakcheck checks goroutine ownership from tests: that every
// goroutine a piece of project code started has exited by a deadline. It
// names each leaked goroutine and prints its stack, where comparing
// runtime.NumGoroutine before and after only counts, and lets runtime and
// testing goroutines skew the count. Only tests import it.
package leakcheck

import (
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// Mark records the goroutines live now and returns the check: it fails t
// unless every goroutine started after the mark that runs repro/ code,
// other than the check's caller, has exited within the deadline, and
// prints the stacks of those that have not. It waits on a deadline, not a
// count of yields. Goroutine ids are never reused, so any id missing from
// the mark was started after it (the runtime hands ids to each P in
// batches, so a later goroutine can have a lower id; only the full set
// tells).
func Mark() func(t testing.TB, within time.Duration) {
	before := make(map[uint64]bool)
	for id := range stacks(true) {
		before[id] = true
	}
	return func(t testing.TB, within time.Duration) {
		t.Helper()
		var self uint64
		for id := range stacks(false) {
			self = id
		}
		deadline := time.Now().Add(within)
		for {
			var leaked []string
			for id, stack := range stacks(true) {
				if !before[id] && id != self && runsProjectCode(stack) {
					leaked = append(leaked, stack)
				}
			}
			if len(leaked) == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("%d goroutines started after the mark outlive it by %v:\n\n%s", len(leaked), within, strings.Join(leaked, "\n\n"))
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// stacks returns the live goroutines' stacks keyed by goroutine id —
// every goroutine's, or with all false only the caller's.
func stacks(all bool) map[uint64]string {
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, all)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, all)
	}
	out := make(map[uint64]string)
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		// The header is "goroutine N [status]:".
		head, _, _ := strings.Cut(strings.TrimPrefix(g, "goroutine "), " ")
		if id, err := strconv.ParseUint(head, 10, 64); err == nil {
			out[id] = g
		}
	}
	return out
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
