package order

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// oracle is the comparator stable sort the kernels were written
// against; Stable must reproduce its permutation exactly.
func oracle(keys []float64) []int {
	idx := identity(len(keys))
	slices.SortStableFunc(idx, func(a, b int) int {
		switch {
		case keys[a] < keys[b]:
			return -1
		case keys[a] > keys[b]:
			return 1
		}
		return 0
	})
	return idx
}

func identity(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// gen draws n keys of one named shape.
func gen(rng *rand.Rand, shape string, n int) []float64 {
	keys := make([]float64, n)
	pool := []float64{0, math.Copysign(0, -1), 5e-324, 2.2250738585072014e-308 / 3, 0.25, 1, 1e300, math.Inf(1)}
	for i := range keys {
		switch shape {
		case "uniform":
			keys[i] = rng.Float64()
		case "ties":
			keys[i] = float64(rng.Intn(4)) / 4
		case "equal":
			keys[i] = 0.5
		case "signedzero":
			keys[i] = pool[rng.Intn(2)]
		case "special":
			keys[i] = pool[rng.Intn(len(pool))]
		case "denormal":
			keys[i] = math.Float64frombits(uint64(rng.Int63n(1 << 52)))
		case "inftail":
			keys[i] = rng.Float64()
			if i >= n/2 {
				keys[i] = math.Inf(1)
			}
		case "sorted":
			keys[i] = float64(i) * 0.125
		case "reversed":
			keys[i] = float64(n-i) * 0.125
		case "wide":
			keys[i] = math.Ldexp(rng.Float64(), rng.Intn(200)-100)
		case "negative":
			keys[i] = rng.NormFloat64()
		}
	}
	return keys
}

var shapes = []string{"uniform", "ties", "equal", "signedzero", "special", "denormal", "inftail", "sorted", "reversed", "wide", "negative"}

func TestStableMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s Scratch
	for _, n := range []int{0, 1, 2, 3, Cutoff - 1, Cutoff, Cutoff + 1, 1000, 16384} {
		for _, shape := range shapes {
			keys := gen(rng, shape, n)
			want := oracle(keys)
			got := identity(n)
			Stable(got, keys, &s)
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d %s: permutation differs from the comparator sort", n, shape)
			}
			if n > 0 && !IsStrict(got, keys) {
				t.Fatalf("n=%d %s: sorted order fails IsStrict", n, shape)
			}
		}
	}
}

// TestStableKeepsInputOrderOfTies sorts a non-identity index vector:
// ties must keep the order they had in idx, not index order.
func TestStableKeepsInputOrderOfTies(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var s Scratch
	for _, n := range []int{Cutoff - 1, Cutoff + 7} {
		keys := gen(rng, "ties", n)
		idx := rng.Perm(n)
		want := slices.Clone(idx)
		slices.SortStableFunc(want, func(a, b int) int {
			switch {
			case keys[a] < keys[b]:
				return -1
			case keys[a] > keys[b]:
				return 1
			}
			return 0
		})
		Stable(idx, keys, &s)
		if !slices.Equal(idx, want) {
			t.Fatalf("n=%d: permuted-input ties reordered", n)
		}
	}
}

func TestIsStrict(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		idx  []int
		keys []float64
		want bool
	}{
		{nil, nil, true},
		{[]int{0}, []float64{3}, true},
		{[]int{1, 0}, []float64{2, 1}, true},
		{[]int{0, 1}, []float64{2, 1}, false},                           // out of order
		{[]int{0, 1}, []float64{1, 1}, true},                            // tie in index order
		{[]int{1, 0}, []float64{1, 1}, false},                           // tie in the wrong order
		{[]int{0, 1}, []float64{math.Copysign(0, -1), 0}, true},         // −0 ties +0
		{[]int{1, 0}, []float64{math.Copysign(0, -1), 0}, false},        // ... in index order only
		{[]int{0, 2, 1}, []float64{0.5, inf, inf}, false},               // +Inf tail out of index order
		{[]int{0, 1, 2}, []float64{0.5, inf, inf}, true},                // +Inf tail in index order
		{[]int{0, 0}, []float64{1, 1}, false},                           // duplicate
		{[]int{0}, []float64{1, 2}, false},                              // short
		{[]int{0, 1, 2}, []float64{1, 2}, false},                        // long
		{[]int{0, 2}, []float64{1, 2}, false},                           // out of range
		{[]int{-1, 0}, []float64{1, 2}, false},                          // negative
		{[]int{0, 1}, []float64{5e-324, 2.2250738585072014e-308}, true}, // denormal below normal
	}
	for _, c := range cases {
		if got := IsStrict(c.idx, c.keys); got != c.want {
			t.Errorf("IsStrict(%v, %v) = %v, want %v", c.idx, c.keys, got, c.want)
		}
	}
}

// TestStableZeroAllocAfterGrow pins the allocation contract: once the
// scratch is grown, neither path allocates.
func TestStableZeroAllocAfterGrow(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{Cutoff / 2, 4 * Cutoff, 16384} {
		var s Scratch
		s.Grow(n)
		keys := gen(rng, "uniform", n)
		idx := identity(n)
		allocs := testing.AllocsPerRun(20, func() {
			for i := range idx {
				idx[i] = i
			}
			Stable(idx, keys, &s)
		})
		if allocs != 0 {
			t.Errorf("n=%d: %v allocs/op after Grow, want 0", n, allocs)
		}
	}
}

// TestGrowBelowCutoffKeepsScratchEmpty pins that small populations
// carry no radix buffers.
func TestGrowBelowCutoffKeepsScratchEmpty(t *testing.T) {
	var s Scratch
	s.Grow(Cutoff - 1)
	if s.a != nil || s.b != nil || s.hist != nil {
		t.Fatal("Grow below Cutoff allocated radix buffers")
	}
	s.Grow(Cutoff)
	if cap(s.a) < Cutoff || cap(s.b) < Cutoff || s.hist == nil {
		t.Fatal("Grow at Cutoff did not size the radix buffers")
	}
}

func FuzzStable(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0x80, 1, 2, 3}, uint16(Cutoff))
	f.Add([]byte("the radix sort must agree with the comparator sort"), uint16(3*Cutoff))
	f.Fuzz(func(t *testing.T, data []byte, size uint16) {
		// The bytes pick keys from a pool rich in ties and special
		// values; size stretches the input past Cutoff.
		pool := []float64{0, math.Copysign(0, -1), 5e-324, 1e-310, 0.1, 0.5, 0.5000000000000001, 1, 3, 1e300, math.Inf(1), -1, math.Inf(-1)}
		n := int(size) % 4096
		if len(data) == 0 {
			n = 0
		}
		keys := make([]float64, n)
		for i := range keys {
			b := data[i%len(data)]
			keys[i] = pool[int(b+byte(i/len(data)))%len(pool)]
			if b&0x80 != 0 {
				keys[i] = math.Float64frombits(uint64(b)*0x9e3779b97f4a7c15>>2 + uint64(i))
			}
		}
		got := identity(n)
		var s Scratch
		Stable(got, keys, &s)
		if want := oracle(keys); !slices.Equal(got, want) {
			t.Fatalf("n=%d: permutation differs from the comparator sort", n)
		}
	})
}

// BenchmarkStablePerm times one sort of uniformly random keys from the
// identity permutation — the cold-start rate sort — across the
// insertion/radix crossover (n=16, 56 are mesh-sized gateways) and up
// to quarter-million-scale populations. BenchmarkComparatorPerm times
// the slices.SortStableFunc sort this package replaced on the same
// inputs.
func BenchmarkStablePerm(b *testing.B) {
	for _, n := range []int{16, 56, 256, 4096, 16384, 65536} {
		keys := gen(rand.New(rand.NewSource(int64(n))), "uniform", n)
		idx := make([]int, n)
		var s Scratch
		s.Grow(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for it := 0; it < b.N; it++ {
				for i := range idx {
					idx[i] = i
				}
				Stable(idx, keys, &s)
			}
		})
	}
}

func BenchmarkComparatorPerm(b *testing.B) {
	for _, n := range []int{16, 56, 256, 4096, 16384, 65536} {
		keys := gen(rand.New(rand.NewSource(int64(n))), "uniform", n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for it := 0; it < b.N; it++ {
				oracle(keys)
			}
		})
	}
}

// BenchmarkCrossover times both algorithms on either side of Cutoff;
// the cutoff is where the two lines meet.
func BenchmarkCrossover(b *testing.B) {
	for _, n := range []int{32, 64, 96, 128, 160, 192, 256, 384} {
		keys := gen(rand.New(rand.NewSource(int64(n))), "uniform", n)
		idx := make([]int, n)
		s := Scratch{a: make([]entry, n), b: make([]entry, n), hist: new([digits][buckets]int)}
		b.Run(fmt.Sprintf("insertion/n=%d", n), func(b *testing.B) {
			for it := 0; it < b.N; it++ {
				for i := range idx {
					idx[i] = i
				}
				insertion(idx, keys)
			}
		})
		b.Run(fmt.Sprintf("radix/n=%d", n), func(b *testing.B) {
			for it := 0; it < b.N; it++ {
				for i := range idx {
					idx[i] = i
				}
				radix(idx, keys, &s)
			}
		})
	}
}
