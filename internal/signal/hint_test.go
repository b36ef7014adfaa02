package signal

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/nettheory/feedbackflow/internal/order"
)

// stableOrder is the stable ascending order of q from the identity.
func stableOrder(q []float64) []int {
	idx := make([]int, len(q))
	for i := range idx {
		idx[i] = i
	}
	order.Stable(idx, q, new(order.Scratch))
	return idx
}

// wrongHints derives candidate orders for q that are not its stable
// ascending order: each must make GatewaySignalsOrdered fall back to
// sorting.
func wrongHints(rng *rand.Rand, q []float64) map[string][]int {
	good := stableOrder(q)
	n := len(q)
	hints := map[string][]int{
		"short":    good[:n-1],
		"long":     append(slices.Clone(good), 0),
		"reversed": nil,
	}
	if n > 1 {
		rev := slices.Clone(good)
		slices.Reverse(rev)
		hints["reversed"] = rev
	}
	// Out of order: swap two entries with different queues.
	for try := 0; try < 20 && n > 1; try++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if q[good[a]] != q[good[b]] {
			h := slices.Clone(good)
			h[a], h[b] = h[b], h[a]
			hints["swapped"] = h
			break
		}
	}
	// Tied queues out of index order: swap an adjacent tied pair. A
	// +Inf tail is one such tie block when it holds two or more.
	for k := 1; k < n; k++ {
		if q[good[k]] == q[good[k-1]] {
			h := slices.Clone(good)
			h[k], h[k-1] = h[k-1], h[k]
			name := "tie"
			if math.IsInf(q[good[k]], 1) {
				name = "inftail"
			}
			hints[name] = h
		}
	}
	// A whole +Inf tail in reverse index order, as the Fair Share rate
	// order leaves it when the overloaded connections' rates differ.
	if k := slices.IndexFunc(good, func(i int) bool { return math.IsInf(q[i], 1) }); k >= 0 && n-k > 1 {
		h := slices.Clone(good)
		slices.Reverse(h[k:])
		hints["inftail-reversed"] = h
	}
	if n > 1 {
		h := slices.Clone(good)
		h[0] = h[1]
		hints["duplicate"] = h
		h = slices.Clone(good)
		h[n-1] = n
		hints["out-of-range"] = h
	}
	return hints
}

// TestGatewaySignalsOrderedWrongHintsMatchNilHint: whatever the hint,
// the signals are bit for bit those of the nil-hint call — a hint can
// only save the sort, never change a value.
func TestGatewaySignalsOrderedWrongHintsMatchNilHint(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	scr := new(Scratch)
	ref := new(Scratch)
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		if trial%10 == 0 {
			n = order.Cutoff + rng.Intn(200)
		}
		q := randomQueues(rng, n, trial%2 == 0)
		want := make([]float64, n)
		if err := GatewaySignalsBatched(want, Individual, Rational{}, q, ref); err != nil {
			t.Fatal(err)
		}
		hints := wrongHints(rng, q)
		hints["good"] = stableOrder(q)
		hints["nil"] = nil
		for name, h := range hints {
			got := make([]float64, n)
			if err := GatewaySignalsOrdered(got, Individual, Rational{}, q, h, scr); err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("trial %d n=%d hint %s: signal[%d] = %v, nil hint %v", trial, n, name, i, got[i], want[i])
				}
			}
			if name != "good" && name != "nil" && h != nil && order.IsStrict(h, q) {
				t.Fatalf("trial %d hint %s passes IsStrict; the generator is wrong", trial, name)
			}
		}
	}
}

// TestGatewaySignalsOrderedSkipsSortOnGoodHint checks the saving is
// real: with a valid hint the scratch's own order buffer is never
// written.
func TestGatewaySignalsOrderedSkipsSortOnGoodHint(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for _, n := range []int{5, order.Cutoff + 3} {
		q := randomQueues(rng, n, false)
		scr := new(Scratch)
		scr.Grow(n)
		for i := range scr.idx {
			scr.idx[i] = -1
		}
		out := make([]float64, n)
		if err := GatewaySignalsOrdered(out, Individual, Rational{}, q, stableOrder(q), scr); err != nil {
			t.Fatal(err)
		}
		for i, v := range scr.idx {
			if v != -1 {
				t.Fatalf("n=%d: sort buffer written at %d despite a valid hint", n, i)
			}
		}
	}
}

// TestGatewaySignalsOrderedZeroAlloc pins both the hint and the
// fallback path at zero allocations once the scratch is grown.
func TestGatewaySignalsOrderedZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, n := range []int{64, 4 * order.Cutoff} {
		q := randomQueues(rng, n, false)
		out := make([]float64, n)
		good := stableOrder(q)
		bad := slices.Clone(good)
		slices.Reverse(bad)
		scr := new(Scratch)
		scr.Grow(n)
		for _, hint := range [][]int{good, bad} {
			allocs := testing.AllocsPerRun(20, func() {
				if err := GatewaySignalsOrdered(out, Individual, Rational{}, q, hint, scr); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("n=%d: GatewaySignalsOrdered allocates %.1f objects per call, want 0", n, allocs)
			}
		}
	}
}
