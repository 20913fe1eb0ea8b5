package coverage

import (
	"math/rand"
	"testing"
)

// TestClassifyWordVariantsMatchBucket pins the word classifier to the
// scalar bucket reference, byte-exhaustively in every lane position and
// over random words.
func TestClassifyWordVariantsMatchBucket(t *testing.T) {
	ref := func(w uint64) uint64 {
		var out uint64
		for b := 0; b < 64; b += 8 {
			out |= uint64(bucket(byte(w>>b))) << b
		}
		return out
	}
	for c := 0; c < 256; c++ {
		for b := 0; b < 64; b += 8 {
			w := uint64(c) << b
			if got, want := classifyWord(w), ref(w); got != want {
				t.Fatalf("classifyWord(%#x) = %#x, want %#x", w, got, want)
			}
		}
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		w := r.Uint64()
		want := ref(w)
		if got := classifyWord(w); got != want {
			t.Fatalf("classifyWord(%#x) = %#x, want %#x", w, got, want)
		}
	}
}

// The classifier benchmark feeds a mixed word stream (sparse low counts,
// the occasional saturated byte):
//
//	go test ./internal/coverage -bench 'BenchmarkClassifyWord' -run XXX

var classifyWords = func() []uint64 {
	r := rand.New(rand.NewSource(2))
	words := make([]uint64, 4096)
	for i := range words {
		var w uint64
		for b := 0; b < 64; b += 8 {
			switch r.Intn(4) {
			case 0: // zero lane, the common sparse case
			case 1:
				w |= uint64(1+r.Intn(3)) << b
			case 2:
				w |= uint64(r.Intn(128)) << b
			case 3:
				w |= uint64(128+r.Intn(128)) << b
			}
		}
		words[i] = w
	}
	return words
}()

var classifySink uint64

func BenchmarkClassifyWordWide(b *testing.B) {
	var acc uint64
	for i := 0; i < b.N; i++ {
		acc ^= classifyWord(classifyWords[i&4095])
	}
	classifySink = acc
}
