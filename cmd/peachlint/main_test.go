package main

import (
	"os/exec"
	"path/filepath"
	"testing"
)

// buildPeachlint compiles the tool into a scratch dir and returns the
// binary path.
func buildPeachlint(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "peachlint")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building peachlint: %v\n%s", err, out)
	}
	return bin
}

// TestStandaloneClean runs the standalone driver over a package that must
// be clean and checks the exit status path.
func TestStandaloneClean(t *testing.T) {
	bin := buildPeachlint(t)
	cmd := exec.Command(bin, "./internal/rng")
	cmd.Dir = "../.."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("peachlint ./internal/rng: %v\n%s", err, out)
	}
}
