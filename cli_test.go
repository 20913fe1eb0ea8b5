package repro

import (
	"errors"
	"fmt"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/peachstar"
)

// TestCLI drives the peachstar command where users run it: the built
// binary. Every flag combination main rejects exits 2 with its message
// before any fuzzing starts, and a flag the command no longer has is an
// unknown flag. A serial run prints one progress line per StatsEvent —
// for -execs 3000 -report 3, the three window-aligned reports and the
// final one — and its finished line is the Stats of a library campaign
// with the same options and seed.
func TestCLI(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "peachstar")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/peachstar").CombinedOutput(); err != nil {
		t.Fatalf("building peachstar CLI: %v\n%s", err, out)
	}

	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-serve", "127.0.0.1:0", "-connect", "127.0.0.1:1"}, "cannot both -serve and -connect"},
		{[]string{"-mesh", "127.0.0.1:0", "-serve", "127.0.0.1:0"}, "cannot be combined with -serve or -connect"},
		{[]string{"-peers", "127.0.0.1:1"}, "-peers and -advertise only apply to -mesh nodes"},
		{[]string{"-checkpoint-every", "100"}, "-checkpoint-every and -resume need -checkpoint"},
		{[]string{"-resume"}, "-checkpoint-every and -resume need -checkpoint"},
		{[]string{"-exec-cmd", "./server {addr}"}, "-exec-cmd needs -exec-addr"},
		{[]string{"-exec-cmd", "./server {addr}", "-exec-addr", "127.0.0.1:1", "-workers", "2"}, "-exec-cmd requires -workers 1"},
		{[]string{"-exec-addr", "127.0.0.1:1"}, "-exec-addr only applies with -exec-cmd"},
		{[]string{"-strategy", "afl"}, `unknown strategy "afl"`},
		{[]string{"-target", "nosuch"}, `unknown target "nosuch"`},
		{[]string{"-stats-every", "1000"}, "flag provided but not defined: -stats-every"},
	} {
		out, err := exec.Command(bin, tc.args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("peachstar %s: exit %v, want status 2\n%s", strings.Join(tc.args, " "), err, out)
			continue
		}
		if !strings.Contains(string(out), tc.msg) {
			t.Errorf("peachstar %s: output lacks %q:\n%s", strings.Join(tc.args, " "), tc.msg, out)
		}
	}

	out, err := exec.Command(bin, "-target", "libmodbus", "-execs", "3000", "-report", "3", "-seed", "1").CombinedOutput()
	if err != nil {
		t.Fatalf("serial run: %v\n%s", err, out)
	}
	if n := len(regexp.MustCompile(`(?m)^ *[0-9.]+s  execs `).FindAll(out, -1)); n != 4 {
		t.Errorf("serial run printed %d progress lines, want 4:\n%s", n, out)
	}

	tgt, err := peachstar.NewTarget("libmodbus")
	if err != nil {
		t.Fatal(err)
	}
	c, err := peachstar.NewCampaign(peachstar.Options{Target: tgt, Strategy: peachstar.PeachStar, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	runCampaign(t, c, 3000)
	s := c.Stats()
	want := fmt.Sprintf("finished: %d execs, %d paths, %d edges, %d unique crashes, %d hangs, corpus %d puzzles",
		s.Execs, s.Paths, s.Edges, s.UniqueCrashes, s.Hangs, s.CorpusPuzzles)
	if got := finishedLine(t, out); got != want {
		t.Errorf("CLI and library campaign differ:\n CLI     %s\n library %s", got, want)
	}
}
