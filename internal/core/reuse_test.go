package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/nettheory/feedbackflow/internal/control"
	"github.com/nettheory/feedbackflow/internal/order"
	"github.com/nettheory/feedbackflow/internal/queueing"
	"github.com/nettheory/feedbackflow/internal/signal"
	"github.com/nettheory/feedbackflow/internal/topology"
)

// sortOnly hides a discipline's in-place path: queueing.ObserveInto
// then evaluates it through the allocating Queues/SojournTimes pair
// (bit-identical to ObserveInto by construction) and reports no rate
// order, so every individual-feedback signal pass sorts the queues
// itself. It is the forced-sort reference for the order reuse.
type sortOnly struct{ queueing.Discipline }

// tiedRates draws n rates from a handful of values, so many
// connections share a rate, with a few free values mixed in; scale
// pushes gateways into overload.
func tiedRates(rng *rand.Rand, n int, scale float64) []float64 {
	levels := []float64{0, 0.01, 0.05, 0.1, 0.3}
	r := make([]float64, n)
	for i := range r {
		if rng.Intn(5) == 0 {
			r[i] = rng.Float64() * scale / float64(n)
		} else {
			r[i] = levels[rng.Intn(len(levels))] * scale / float64(n) * 4
		}
	}
	return r
}

// tiedLaws draws per-connection laws from two parameter sets, so tied
// connections on the same route stay tied.
func tiedLaws(rng *rand.Rand, n int) []control.Law {
	sets := []control.AdditiveTSI{{Eta: 0.02, BSS: 0.5}, {Eta: 0.05, BSS: 0.3}}
	laws := make([]control.Law, n)
	for i := range laws {
		laws[i] = sets[rng.Intn(len(sets))]
	}
	return laws
}

// reuseNetwork draws either a small random mesh or one gateway large
// enough for the radix sort.
func reuseNetwork(t *testing.T, rng *rand.Rand, trial int) *topology.Network {
	t.Helper()
	var (
		net *topology.Network
		err error
	)
	if trial%4 == 0 {
		net, err = topology.SingleGateway(order.Cutoff+rng.Intn(200), 1, 0.01)
	} else {
		nGw := 1 + rng.Intn(4)
		net, err = topology.Random(rng, nGw, 2+rng.Intn(30), 1+rng.Intn(nGw), 0.5, 2, 0.01)
	}
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestOrderReuseMatchesForcedSort pins the rate-order reuse: stepping
// with the Fair Share rate order handed to the signal kernel must be
// bit-identical to a path that always sorts the queues, for both Fair
// Share variants, on randomized inputs with many equal rates and with
// overload. The test also requires that both the reuse and the
// fallback were exercised.
func TestOrderReuseMatchesForcedSort(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	hits, misses := 0, 0
	for trial := 0; trial < 24; trial++ {
		net := reuseNetwork(t, rng, trial)
		n := net.NumConnections()
		laws := tiedLaws(rng, n)
		scale := 0.5
		if trial%3 == 0 {
			scale = 3 // overloaded start: +Inf tails
		}
		r0 := tiedRates(rng, n, scale)
		for _, disc := range []queueing.Discipline{queueing.FairShare{}, queueing.NonPreemptiveFairShare{}} {
			sys, err := NewSystem(net, disc, signal.Individual, signal.Rational{}, laws)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewSystem(net, sortOnly{disc}, signal.Individual, signal.Rational{}, laws)
			if err != nil {
				t.Fatal(err)
			}
			ws, wref := sys.NewWorkspace(), ref.NewWorkspace()
			r, rr := append([]float64(nil), r0...), append([]float64(nil), r0...)
			next, nextRef := make([]float64, n), make([]float64, n)
			last := net.NumGateways() - 1
			for step := 0; step < 30; step++ {
				if err := ws.Step(r, next); err != nil {
					t.Fatal(err)
				}
				if err := wref.Step(rr, nextRef); err != nil {
					t.Fatal(err)
				}
				if wref.scr.Order() != nil {
					t.Fatal("reference path reports a rate order; it would not sort")
				}
				sameObservation(t, trial, step, &ws.obs, &wref.obs)
				for i := range next {
					if !bitsEqual(next[i], nextRef[i]) {
						t.Fatalf("trial %d %s step %d: rate[%d] = %v, forced sort %v", trial, disc.Name(), step, i, next[i], nextRef[i])
					}
				}
				if order.IsStrict(ws.scr.Order(), ws.obs.Queues[last]) {
					hits++
				} else {
					misses++
				}
				r, next = next, r
				rr, nextRef = nextRef, rr
			}
			opts := RunOptions{MaxSteps: 60, NoEarlyStop: true}
			res, err := sys.Run(r0, opts)
			if err != nil {
				t.Fatal(err)
			}
			resRef, err := ref.Run(r0, opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := range res.Rates {
				if !bitsEqual(res.Rates[i], resRef.Rates[i]) {
					t.Fatalf("trial %d %s: Run rate[%d] = %v, forced sort %v", trial, disc.Name(), i, res.Rates[i], resRef.Rates[i])
				}
			}
			sameObservation(t, trial, -1, res.Final, resRef.Final)
		}
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("rate order reused %d times and rejected %d times; the inputs must exercise both", hits, misses)
	}
}

// relabel builds net with its connections renumbered: connection j of
// the result is connection src[j] of net.
func relabel(t *testing.T, net *topology.Network, src []int) *topology.Network {
	t.Helper()
	var b topology.Builder
	for a := 0; a < net.NumGateways(); a++ {
		g := net.Gateway(a)
		b.AddGateway(g.Name, g.Mu, g.Latency)
	}
	for _, i := range src {
		b.AddConnection(net.Route(i)...)
	}
	out, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// close9 is the 1e-9 mixed relative-absolute tolerance of
// docs/PERFORMANCE.md, with +Inf required to match exactly.
func close9(a, b float64) bool {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return a == b
	}
	return math.Abs(a-b) <= 1e-9*(1+math.Max(math.Abs(a), math.Abs(b)))
}

// TestPermutedLabelsMetamorphic relabels the connections of randomized
// topologies and requires System.Run's results to permute with the
// labels, in all four {FIFO, Fair Share} × {aggregate, individual}
// corners. Relabeling changes the order of every gateway's connection
// list, and with it the tie-breaking of the stable sorts — the
// property that guards handing the rate order to the signal kernel.
//
// Fair Share with individual feedback does every per-gateway sum in
// sorted order, so with distinct rates its results must permute bit
// for bit. FIFO's total load and the aggregate measure Σ Q_k add in
// connection-list order, and tied rates trade places in the sorted
// sweeps, so those cases — and every case with ties — must agree within
// 1e-9.
func TestPermutedLabelsMetamorphic(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	discs := []queueing.Discipline{queueing.FIFO{}, queueing.FairShare{}}
	styles := []signal.Style{signal.Aggregate, signal.Individual}
	for trial := 0; trial < 24; trial++ {
		ties := trial%2 == 1
		nGw := 1 + rng.Intn(4)
		net, err := topology.Random(rng, nGw, 2+rng.Intn(12), 1+rng.Intn(nGw), 0.5, 2, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		n := net.NumConnections()
		var (
			laws []control.Law
			r0   []float64
		)
		if ties {
			laws, r0 = tiedLaws(rng, n), tiedRates(rng, n, 0.5)
		} else {
			laws, r0 = make([]control.Law, n), make([]float64, n)
			for i := range laws {
				laws[i] = control.AdditiveTSI{Eta: 0.01 + rng.Float64()*0.04, BSS: 0.2 + rng.Float64()*0.6}
				r0[i] = rng.Float64() * 0.5 / float64(n)
			}
		}
		src := rng.Perm(n)
		pnet := relabel(t, net, src)
		plaws := make([]control.Law, n)
		pr0 := make([]float64, n)
		for j, i := range src {
			plaws[j], pr0[j] = laws[i], r0[i]
		}
		for _, disc := range discs {
			for _, style := range styles {
				name := fmt.Sprintf("trial %d %s/%v ties=%v", trial, disc.Name(), style, ties)
				bitwise := !ties && disc.Name() == "FairShare" && style == signal.Individual
				sys, err := NewSystem(net, disc, style, signal.Rational{}, laws)
				if err != nil {
					t.Fatal(err)
				}
				psys, err := NewSystem(pnet, disc, style, signal.Rational{}, plaws)
				if err != nil {
					t.Fatal(err)
				}
				opts := RunOptions{MaxSteps: 150, NoEarlyStop: true}
				res, err := sys.Run(r0, opts)
				if err != nil {
					t.Fatal(err)
				}
				pres, err := psys.Run(pr0, opts)
				if err != nil {
					t.Fatal(err)
				}
				same := close9
				if bitwise {
					same = bitsEqual
				}
				for j, i := range src {
					if !same(pres.Rates[j], res.Rates[i]) {
						t.Fatalf("%s: relabeled rate[%d] = %v, original rate[%d] = %v", name, j, pres.Rates[j], i, res.Rates[i])
					}
					if !same(pres.Final.Signals[j], res.Final.Signals[i]) || !same(pres.Final.Delays[j], res.Final.Delays[i]) {
						t.Fatalf("%s: relabeled connection %d observes (%v, %v), original %d (%v, %v)", name, j,
							pres.Final.Signals[j], pres.Final.Delays[j], i, res.Final.Signals[i], res.Final.Delays[i])
					}
				}
				// Queue rows list each gateway's connections in label
				// order; match them through the relabeling.
				for a := 0; a < net.NumGateways(); a++ {
					pos := make(map[int]int)
					for k, i := range net.Connections(a) {
						pos[i] = k
					}
					for k, j := range pnet.Connections(a) {
						got, want := pres.Final.Queues[a][k], res.Final.Queues[a][pos[src[j]]]
						if !same(got, want) {
							t.Fatalf("%s: gateway %d queue of relabeled %d = %v, original %v", name, a, j, got, want)
						}
					}
				}
			}
		}
	}
}
