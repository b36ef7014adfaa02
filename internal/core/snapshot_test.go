package core

import (
	"math/rand"
	"testing"

	"github.com/nettheory/feedbackflow/internal/control"
	"github.com/nettheory/feedbackflow/internal/queueing"
	"github.com/nettheory/feedbackflow/internal/signal"
	"github.com/nettheory/feedbackflow/internal/topology"
)

// cloneObservation deep-copies o.
func cloneObservation(o *Observation) *Observation {
	c := &Observation{
		Signals:     append([]float64(nil), o.Signals...),
		Delays:      append([]float64(nil), o.Delays...),
		Queues:      make([][]float64, len(o.Queues)),
		Bottlenecks: make([][]int, len(o.Bottlenecks)),
	}
	for a, row := range o.Queues {
		c.Queues[a] = append([]float64(nil), row...)
	}
	for i, row := range o.Bottlenecks {
		c.Bottlenecks[i] = append([]int(nil), row...)
	}
	return c
}

// TestRunFinalIsCallerOwnedSnapshot pins Run's final observation: it
// equals System.Observe at the final rates bit for bit, and it is a
// copy — neither a later Run nor a later Observe on the same System
// (which reuse the pooled workspace it was computed on) changes it.
func TestRunFinalIsCallerOwnedSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for trial := 0; trial < 30; trial++ {
		sys := randomSystem(t, rng)
		n := sys.Network().NumConnections()
		r0 := make([]float64, n)
		r1 := make([]float64, n)
		for i := range r0 {
			r0[i] = rng.Float64() * 1.5
			r1[i] = rng.Float64() * 0.2
		}
		res, err := sys.Run(r0, RunOptions{MaxSteps: 40})
		if err != nil {
			t.Fatal(err)
		}
		want, err := sys.Observe(res.Rates)
		if err != nil {
			t.Fatal(err)
		}
		sameObservation(t, trial, -1, res.Final, want)
		kept := cloneObservation(res.Final)
		if _, err := sys.Run(r1, RunOptions{MaxSteps: 40}); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Observe(r1); err != nil {
			t.Fatal(err)
		}
		sameObservation(t, trial, -1, res.Final, kept)
		// Appending to a row must not spill into its neighbour.
		if len(res.Final.Queues) > 1 {
			_ = append(res.Final.Queues[0], -1)
			sameObservation(t, trial, -1, res.Final, kept)
		}
		if len(res.Final.Bottlenecks) > 1 {
			_ = append(res.Final.Bottlenecks[0], -1)
			sameObservation(t, trial, -1, res.Final, kept)
		}
	}
}

// halveMu is a StepHook that degrades every gateway to half capacity
// on every step.
type halveMu struct{}

func (halveMu) BeginStep(_ int, mu []float64) {
	for a := range mu {
		mu[a] /= 2
	}
}
func (halveMu) PerturbObservation(int, []float64, *Observation) {}
func (halveMu) PerturbNext(int, []float64, []float64)           {}

// TestHookedRunFinalUsesPlanMu: a hook's capacity change lasts one
// step, so a hooked run's final observation is taken at the plan's
// service rates, exactly as System.Observe takes it.
func TestHookedRunFinalUsesPlanMu(t *testing.T) {
	net, err := topology.ParkingLot(3, 1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	n := net.NumConnections()
	sys, err := NewSystem(net, queueing.FairShare{}, signal.Individual, signal.Rational{},
		control.Uniform(control.AdditiveTSI{Eta: 0.05, BSS: 0.5}, n))
	if err != nil {
		t.Fatal(err)
	}
	r0 := make([]float64, n)
	for i := range r0 {
		r0[i] = 0.1
	}
	res, err := sys.Run(r0, RunOptions{MaxSteps: 50, Hook: halveMu{}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.Observe(res.Rates)
	if err != nil {
		t.Fatal(err)
	}
	sameObservation(t, 0, -1, res.Final, want)
	// The halved capacity would have shown in the queues.
	ws := sys.NewWorkspace()
	ws.muOverride = []float64{0.5, 0.5, 0.5}
	half, err := ws.Observe(res.Rates)
	if err != nil {
		t.Fatal(err)
	}
	if bitsEqual(half.Queues[0][0], res.Final.Queues[0][0]) {
		t.Fatal("halved capacity leaves the queues unchanged; the check proves nothing")
	}
}

// TestRunAllocations pins System.Run's allocation count on a fixed
// small topology. Everything the step loop touches comes from the
// pooled workspace; what remains is the run's own state (rate vectors
// and result) and the caller-owned final observation, one backing
// array per field.
func TestRunAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled workspaces at random")
	}
	net, err := topology.ParkingLot(3, 1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	n := net.NumConnections()
	sys, err := NewSystem(net, queueing.FairShare{}, signal.Individual, signal.Rational{},
		control.Uniform(control.AdditiveTSI{Eta: 0.05, BSS: 0.5}, n))
	if err != nil {
		t.Fatal(err)
	}
	r0 := make([]float64, n)
	for i := range r0 {
		r0[i] = 0.1
	}
	opts := RunOptions{MaxSteps: 50, NoEarlyStop: true}
	if _, err := sys.Run(r0, opts); err != nil { // warm the pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := sys.Run(r0, opts); err != nil {
			t.Fatal(err)
		}
	})
	// r, next, the result; the Observation and its six slices.
	const want = 10
	if allocs > want {
		t.Errorf("System.Run allocates %.0f objects per run, want at most %d", allocs, want)
	}
}
