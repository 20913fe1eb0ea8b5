package corpus

import (
	"testing"

	"repro/internal/checkpoint"
)

// TestRestoreRejectsWidePeerCursor: a peer cursor is stored as cursor+1 in
// a uvarint, and restore reads it as an int, so a stored value that does
// not fit the platform's int is refused on every word size instead of
// wrapping into a cursor the format never writes (2^64-1 into -2 on a
// 64-bit int, 2^32+1 into 0 on a 32-bit one).
func TestRestoreRejectsWidePeerCursor(t *testing.T) {
	c := New(4)
	c.Add(puzzle("sig", "data", "m"))
	c.RegisterPeer(0)
	var w checkpoint.Writer
	c.Snapshot(&w)
	good := w.Data()
	if good[len(good)-1] != 1 { // the last byte is the lone cursor, 0+1
		t.Fatalf("snapshot ends in %#x, want the cursor byte 0x01", good[len(good)-1])
	}
	if err := New(4).Restore(checkpoint.NewReader(good)); err != nil {
		t.Fatalf("the corpus's own snapshot does not restore: %v", err)
	}
	for _, tc := range []struct {
		name  string
		value uint64
	}{
		{"max-uint64", 1<<64 - 1},
		{"2^32+1", 1<<32 + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var wide checkpoint.Writer
			wide.Uvarint(tc.value)
			bad := append(append([]byte(nil), good[:len(good)-1]...), wide.Data()...)
			if err := New(4).Restore(checkpoint.NewReader(bad)); err == nil {
				t.Fatalf("restore accepted peer cursor value %d", tc.value)
			}
		})
	}
}
