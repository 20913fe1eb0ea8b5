package rng

import (
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 equal values", same)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(13)
		if v < 0 || v >= 13 {
			t.Fatalf("Intn(13) = %d out of range", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestRangeInclusive(t *testing.T) {
	r := New(3)
	sawLo, sawHi := false, false
	for i := 0; i < 5000; i++ {
		v := r.Range(5, 8)
		if v < 5 || v > 8 {
			t.Fatalf("Range(5,8) = %d", v)
		}
		if v == 5 {
			sawLo = true
		}
		if v == 8 {
			sawHi = true
		}
	}
	if !sawLo || !sawHi {
		t.Fatal("Range did not cover both endpoints")
	}
}

func TestRangePanicsWhenInverted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Range(2,1) should panic")
		}
	}()
	New(1).Range(2, 1)
}

func TestBytesLength(t *testing.T) {
	r := New(9)
	b := r.Bytes(37)
	if len(b) != 37 {
		t.Fatalf("len = %d", len(b))
	}
}

func TestPickCoversAll(t *testing.T) {
	r := New(11)
	xs := []string{"a", "b", "c"}
	seen := map[string]bool{}
	for i := 0; i < 300; i++ {
		seen[Pick(r, xs)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("Pick covered %d/3 values", len(seen))
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	f := func(seed uint64, xs []int) bool {
		r := New(seed)
		orig := map[int]int{}
		for _, x := range xs {
			orig[x]++
		}
		cp := append([]int(nil), xs...)
		Shuffle(r, cp)
		got := map[int]int{}
		for _, x := range cp {
			got[x]++
		}
		if len(orig) != len(got) {
			return false
		}
		for k, v := range orig {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChanceAlwaysWithOne(t *testing.T) {
	r := New(6)
	for i := 0; i < 100; i++ {
		if !r.Chance(1) {
			t.Fatal("Chance(1) must always be true")
		}
	}
}

func TestUniformityRough(t *testing.T) {
	r := New(123)
	var buckets [8]int
	const n = 80000
	for i := 0; i < n; i++ {
		buckets[r.Intn(8)]++
	}
	for i, c := range buckets {
		if c < n/8-n/40 || c > n/8+n/40 {
			t.Fatalf("bucket %d badly skewed: %d", i, c)
		}
	}
}

func TestSplitStream0IsIdentity(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, ^uint64(0)} {
		if got := Split(seed, 0); got != seed {
			t.Fatalf("Split(%d, 0) = %d, want the seed itself", seed, got)
		}
	}
}

func TestSplitStreamsDecorrelated(t *testing.T) {
	const seed = 7
	seen := map[uint64]bool{}
	for i := 0; i < 64; i++ {
		s := Split(seed, i)
		if seen[s] {
			t.Fatalf("stream %d collides with an earlier stream (seed %d)", i, s)
		}
		seen[s] = true
	}
	// First draws of adjacent streams must differ too.
	a, b := New(Split(seed, 1)).Uint64(), New(Split(seed, 2)).Uint64()
	if a == b {
		t.Fatal("adjacent split streams emit identical first draw")
	}
}
