package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/nettheory/feedbackflow/internal/core"
	"github.com/nettheory/feedbackflow/internal/fluid"
	"github.com/nettheory/feedbackflow/internal/obs"
	"github.com/nettheory/feedbackflow/internal/scenario"
)

// The fluid workload: tens of classes over a few gateways, a total
// population of at least 10⁶, solved by fluid.FromSpec's adaptive RK4
// to a fixed integrator-step horizon (a fixed horizon because solves
// of this size can sit at a constant residual without meeting the
// convergence test).
const (
	fluidGateways = 6
	fluidClasses  = 48
	fluidMaxPath  = 3
	fluidSteps    = 400
)

// fluidDoc generates the workload's scenario. The classes, their
// routes and nominal parameters are fixed; the seed jitters every
// gateway rate, member count, gain and target by up to ±5%. Adaptive
// stepping does data-dependent work, and seeds drawn from the full
// parameter ranges made solves differ by 10–20% in cost from seed to
// seed, which would hide a change of that size. Class counts are
// 21000 to 31000 (so the population is at least 48·21000 > 10⁶), and
// the laws alternate additive and multiplicative TSI.
func fluidDoc(seed int64) ([]byte, error) {
	nominal := rand.New(rand.NewSource(1))
	rng := rand.New(rand.NewSource(seed))
	jitter := func(v float64) float64 { return v * (0.95 + 0.1*rng.Float64()) }
	sp := scenario.Spec{Name: fmt.Sprintf("fluid-%d", seed)}
	for a := 0; a < fluidGateways; a++ {
		sp.Gateways = append(sp.Gateways, scenario.GatewaySpec{
			Name: fmt.Sprintf("g%d", a), Mu: jitter(1e4 * (1 + 3*nominal.Float64())), Latency: 0.1,
		})
	}
	for c := 0; c < fluidClasses; c++ {
		// The route shape is fixed by the class index, so every gateway
		// carries the same number of classes.
		var path []string
		for hop := 0; hop <= (c/fluidGateways)%fluidMaxPath; hop++ {
			path = append(path, sp.Gateways[(c+hop)%fluidGateways].Name)
		}
		law := scenario.LawSpec{Kind: "additive", Eta: 1e-3 * (0.5 + nominal.Float64()), BSS: 0.2 + 0.6*nominal.Float64()}
		if c%2 == 1 {
			law = scenario.LawSpec{Kind: "multiplicative", Eta: 0.2 + 0.6*nominal.Float64(), BSS: 0.2 + 0.6*nominal.Float64()}
		}
		law.Eta, law.BSS = jitter(law.Eta), jitter(law.BSS)
		count := 21000 + nominal.Int63n(10000)
		count += rng.Int63n(count/20+1) - count/40
		sp.Connections = append(sp.Connections, scenario.ConnectionSpec{Path: path, Law: law, Count: count})
	}
	return json.Marshal(&sp)
}

func runFluid(b *bench) error {
	doc, err := fluidDoc(b.seed)
	if err != nil {
		return err
	}
	var sys *fluid.System
	var r0 []float64
	var load, canon, classes, compile []float64
	s, reps, err := measureSetup(setupReps, func() error {
		t0 := time.Now()
		sp, err := scenario.Load(bytes.NewReader(doc))
		t1 := time.Now()
		if err != nil {
			return err
		}
		if _, err := sp.Canonical(); err != nil {
			return err
		}
		t2 := time.Now()
		// FromSpec collapses the classes itself; timing FluidClasses
		// alone separates the scenario layer's share of the compile.
		if _, err := sp.FluidClasses(); err != nil {
			return err
		}
		t3 := time.Now()
		sys, r0, err = fluid.FromSpec(sp)
		t4 := time.Now()
		load = append(load, us(t1.Sub(t0)))
		canon = append(canon, us(t2.Sub(t1)))
		classes = append(classes, ms(t3.Sub(t2)))
		compile = append(compile, ms(t4.Sub(t3)))
		return err
	})
	if err != nil {
		return err
	}
	b.set("setup_s", s, reps)
	b.set("scenario.load_us", median(load), reps)
	b.set("scenario.canonical_us", median(canon), reps)
	b.set("scenario.build_ms", median(classes), reps)
	b.set("fluid.setup_ms", median(compile), reps)
	b.traffic["document_bytes"] = len(doc)
	b.traffic["gateways"] = fluidGateways
	b.traffic["classes"] = sys.NumClasses()
	b.traffic["population"] = sys.Population()
	b.traffic["steps_per_solve"] = fluidSteps

	opts := core.RunOptions{MaxSteps: fluidSteps, NoEarlyStop: true}
	if b.trace {
		return traceFluid(b, sys, r0, opts)
	}
	runSolveWork(b, &solveWork{
		inputs: 1,
		solve: func(int) ([]*core.RunResult, error) {
			res, err := sys.Run(r0, opts)
			if err != nil {
				return nil, err
			}
			return []*core.RunResult{res}, nil
		},
		check:     func(_ int, res []*core.RunResult) error { return finiteRates(res[0].Rates) },
		connSteps: sys.Population() * fluidSteps,
	})
	return nil
}

func finiteRates(r []float64) error {
	for c, v := range r {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("class %d: final rate %v is not a finite non-negative number", c, v)
		}
	}
	return nil
}

// stepClock is the traced fluid run's step tracer: fluid.System.Run
// calls OnStep once at the start of every step, so consecutive calls
// bound one integrator step.
type stepClock struct {
	l     *spanLog
	stamp []int64
}

func (c *stepClock) OnStep(int, []float64, float64, []float64) {
	c.stamp = append(c.stamp, c.l.now())
}

var _ obs.StepTracer = (*stepClock)(nil)

// traceFluid alternates untraced and step-traced solves; the traced
// one's steps become spans under its run span, and a separate
// fluid.System.Observe at the final rates is timed on its own.
func traceFluid(b *bench, sys *fluid.System, r0 []float64, opts core.RunOptions) error {
	l := b.spans
	var plainTotal time.Duration
	var stepsPer, stepUS, observeUS []float64
	converged, solves := 0, 0
	ds := newDigestSet(1)
	deadline := time.Now().Add(b.phase(1))
	for id := uint64(1); id == 1 || time.Now().Before(deadline); id++ {
		t0 := time.Now()
		plain, err := sys.Run(r0, opts)
		plainTotal += time.Since(t0)
		if err != nil {
			b.op(err)
			continue
		}
		clock := &stepClock{l: l, stamp: make([]int64, 0, fluidSteps+1)}
		topts := opts
		topts.Tracer = clock
		root := l.begin("fluid.run", id, -1)
		traced, err := sys.Run(r0, topts)
		l.end(root, 0)
		if err == nil {
			end := l.cur[root].End
			for t, at := range clock.stamp {
				stop := end
				if t+1 < len(clock.stamp) {
					stop = clock.stamp[t+1]
				}
				l.add(span{Name: "fluid.step", ID: id, Start: at, End: stop, Parent: root})
				stepUS = append(stepUS, float64(stop-at)/1e3)
			}
			l.close()
			err = sameBits("traced fluid rates", traced.Rates, plain.Rates)
		} else {
			l.close()
		}
		if err == nil {
			err = finiteRates(plain.Rates)
		}
		if err == nil {
			err = ds.verify(0, []*core.RunResult{plain})
		}
		if err == nil {
			s := l.begin("fluid.observe", id, -1)
			_, err = sys.Observe(plain.Rates)
			l.end(s, len(plain.Rates))
			observeUS = append(observeUS, float64(l.cur[s].End-l.cur[s].Start)/1e3)
			l.close()
		}
		b.op(err)
		solves++
		stepsPer = append(stepsPer, float64(plain.Steps))
		if plain.Converged {
			converged++
		}
	}
	b.digest = ds.String()
	b.set("fluid.steps_per_solve", median(stepsPer), len(stepsPer))
	b.set("fluid.step_us", median(stepUS), len(stepUS))
	b.set("fluid.observe_us", median(observeUS), len(observeUS))
	b.set("fluid.converged_frac", float64(converged)/float64(max(solves, 1)), solves)
	b.set("trace.overhead_frac", float64(l.total["fluid.run"])/float64(plainTotal)-1, solves)
	l.selfTable("fluid.run")
	b.zeroLayers()
	return nil
}
