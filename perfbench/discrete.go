package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/nettheory/feedbackflow/internal/core"
	"github.com/nettheory/feedbackflow/internal/queueing"
	"github.com/nettheory/feedbackflow/internal/scenario"
	"github.com/nettheory/feedbackflow/internal/signal"
	"github.com/nettheory/feedbackflow/internal/topology"
)

// Workload sizes. bigpop is the large-gateway regime where the two
// stable sorts per step dominate; mesh is the many-small-gateway regime
// where they are insertion sorts and path combine and the law matter.
const (
	bigpopN      = 16384
	bigpopSteps  = 20
	bigpopInputs = 3

	meshGateways = 256
	meshConns    = 4096
	meshMaxPath  = 6
	meshSteps    = 20
	meshInputs   = 2

	setupReps = 5
)

// corner is one point of the paper's 2×2 design space.
type corner struct {
	name       string
	discipline string
	feedback   string
}

// corners are mesh's sweep; bigpop solves the last one only.
var corners = []corner{
	{"fifo-agg", "fifo", "aggregate"},
	{"fifo-ind", "fifo", "individual"},
	{"fs-agg", "fairshare", "aggregate"},
	{"fs-ind", "fairshare", "individual"},
}

// discreteCase is a discrete workload's generated input: one scenario
// document, the corners it is solved under and the seeded initial rate
// vectors.
type discreteCase struct {
	doc     []byte
	corners []corner
	inits   [][]float64
	steps   int
}

// bigpopCase: one Fair Share gateway with individual feedback and N
// additive-TSI connections, η ∝ 1/N and b_SS spread from the seed, and
// cold starts from random rates with total load about one half.
func bigpopCase(seed int64) (*discreteCase, error) {
	rng := rand.New(rand.NewSource(seed))
	sp := scenario.Spec{
		Name:     fmt.Sprintf("bigpop-%d", seed),
		Gateways: []scenario.GatewaySpec{{Name: "g0", Mu: 1, Latency: 1}},
	}
	for i := 0; i < bigpopN; i++ {
		sp.Connections = append(sp.Connections, scenario.ConnectionSpec{
			Path: []string{"g0"},
			Law:  scenario.LawSpec{Kind: "additive", Eta: 0.02 / bigpopN, BSS: 0.1 + 0.8*rng.Float64()},
		})
	}
	c := &discreteCase{corners: corners[3:], steps: bigpopSteps}
	for k := 0; k < bigpopInputs; k++ {
		r := make([]float64, bigpopN)
		for i := range r {
			r[i] = rng.Float64() / bigpopN
		}
		c.inits = append(c.inits, r)
	}
	sp.Initial = c.inits[0]
	return c, c.encode(&sp)
}

// meshCase: a topology.Random network of 256 gateways and 4096
// connections on 1–6 hop paths. Each connection's initial rate and gain
// scale with its tightest fair share min_a μ_a/|Γ(a)|, so no gateway
// starts above 80% load.
func meshCase(seed int64) (*discreteCase, error) {
	rng := rand.New(rand.NewSource(seed))
	net, err := topology.Random(rng, meshGateways, meshConns, meshMaxPath, 1, 4, 0.1)
	if err != nil {
		return nil, err
	}
	sp := scenario.Spec{Name: fmt.Sprintf("mesh-%d", seed)}
	for a := 0; a < net.NumGateways(); a++ {
		g := net.Gateway(a)
		sp.Gateways = append(sp.Gateways, scenario.GatewaySpec{Name: g.Name, Mu: g.Mu, Latency: g.Latency})
	}
	share := make([]float64, net.NumConnections())
	for i := range share {
		share[i] = math.Inf(1)
		var path []string
		for _, a := range net.Route(i) {
			share[i] = math.Min(share[i], net.Gateway(a).Mu/float64(net.NumAt(a)))
			path = append(path, net.Gateway(a).Name)
		}
		sp.Connections = append(sp.Connections, scenario.ConnectionSpec{
			Path: path,
			Law:  scenario.LawSpec{Kind: "additive", Eta: 0.01 * share[i], BSS: 0.2 + 0.6*rng.Float64()},
		})
	}
	c := &discreteCase{corners: corners, steps: meshSteps}
	for k := 0; k < meshInputs; k++ {
		r := make([]float64, len(share))
		for i := range r {
			r[i] = (0.2 + 0.6*rng.Float64()) * share[i]
		}
		c.inits = append(c.inits, r)
	}
	sp.Initial = c.inits[0]
	return c, c.encode(&sp)
}

func (c *discreteCase) encode(sp *scenario.Spec) error {
	doc, err := json.Marshal(sp)
	c.doc = doc
	return err
}

// setupTimes is what one set-up of a discrete workload spent in each
// scenario stage.
type setupTimes struct{ load, canonical, build time.Duration }

// build is the workload's set-up: scenario.Load of the document, then
// Canonical (the content address ffcd would key it by) and Build for
// every corner.
func (c *discreteCase) build() ([]*core.System, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	sp, err := scenario.Load(bytes.NewReader(c.doc))
	st.load = time.Since(t0)
	if err != nil {
		return nil, st, err
	}
	var systems []*core.System
	for _, cn := range c.corners {
		sp.Discipline, sp.Feedback = cn.discipline, cn.feedback
		t0 = time.Now()
		if _, err := sp.Canonical(); err != nil {
			return nil, st, err
		}
		t1 := time.Now()
		sys, _, err := sp.Build()
		st.canonical += t1.Sub(t0)
		st.build += time.Since(t1)
		if err != nil {
			return nil, st, err
		}
		systems = append(systems, sys)
	}
	return systems, st, nil
}

// setup builds the systems setupReps times, reports setup_s and the
// scenario stage times, and returns the last build's systems.
func (c *discreteCase) setup(b *bench) ([]*core.System, error) {
	var systems []*core.System
	var load, canon, build []float64
	s, reps, err := measureSetup(setupReps, func() error {
		var st setupTimes
		var err error
		systems, st, err = c.build()
		load = append(load, us(st.load))
		canon = append(canon, us(st.canonical))
		build = append(build, ms(st.build))
		return err
	})
	if err != nil {
		return nil, err
	}
	b.set("setup_s", s, reps)
	b.set("scenario.load_us", median(load), reps)
	b.set("scenario.canonical_us", median(canon), reps)
	b.set("scenario.build_ms", median(build), reps)
	b.traffic["document_bytes"] = len(c.doc)
	b.traffic["corners"] = len(c.corners)
	b.traffic["steps_per_solve"] = c.steps
	b.traffic["inputs"] = len(c.inits)
	describeNetwork(b, systems[0].Network())
	return systems, nil
}

// describeNetwork records the traffic descriptors of a topology: the
// per-gateway population histogram (power-of-two buckets) and the hop
// counts per connection.
func describeNetwork(b *bench, net *topology.Network) {
	pop := map[string]int{}
	for a := 0; a < net.NumGateways(); a++ {
		n := net.NumAt(a)
		lo := 1
		for lo*2 <= n {
			lo *= 2
		}
		pop[fmt.Sprintf("%d-%d", lo, 2*lo-1)]++
	}
	hops := map[string]int{}
	for i := 0; i < net.NumConnections(); i++ {
		hops[fmt.Sprint(len(net.Route(i)))]++
	}
	b.traffic["gateways"] = net.NumGateways()
	b.traffic["connections"] = net.NumConnections()
	b.traffic["gateway_population_hist"] = pop
	b.traffic["hops_per_connection_hist"] = hops
}

func (c *discreteCase) runOptions() core.RunOptions {
	return core.RunOptions{MaxSteps: c.steps, NoEarlyStop: true}
}

// checkFinal applies the queue gate to a final observation: at every
// gateway Σ Q = g(ρ_tot) and the prefix bounds hold.
func checkFinal(sys *core.System, res *core.RunResult) error {
	net := sys.Network()
	for a := 0; a < net.NumGateways(); a++ {
		conns := net.Connections(a)
		r := make([]float64, len(conns))
		for k, i := range conns {
			r[k] = res.Rates[i]
		}
		rep, err := queueing.CheckFeasibility(r, res.Final.Queues[a], net.Gateway(a).Mu, 1e-9)
		if err != nil {
			return fmt.Errorf("gateway %d: %w", a, err)
		}
		if !rep.Feasible {
			return fmt.Errorf("gateway %d: final queues infeasible (conservation error %g, %d prefix violations)",
				a, rep.ConservationErr, len(rep.PrefixViolations))
		}
	}
	return nil
}

func runBigpop(b *bench) error {
	c, err := bigpopCase(b.seed)
	if err != nil {
		return err
	}
	return runDiscrete(b, c)
}

func runMesh(b *bench) error {
	c, err := meshCase(b.seed)
	if err != nil {
		return err
	}
	return runDiscrete(b, c)
}

func runDiscrete(b *bench, c *discreteCase) error {
	systems, err := c.setup(b)
	if err != nil {
		return err
	}
	if b.trace {
		return traceDiscrete(b, c, systems)
	}
	opts := c.runOptions()
	w := &solveWork{
		inputs: len(c.inits),
		solve: func(k int) ([]*core.RunResult, error) {
			out := make([]*core.RunResult, len(systems))
			for j, sys := range systems {
				res, err := sys.Run(c.inits[k], opts)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", c.corners[j].name, err)
				}
				out[j] = res
			}
			return out, nil
		},
		check: func(k int, res []*core.RunResult) error {
			for j, sys := range systems {
				if err := checkFinal(sys, res[j]); err != nil {
					return fmt.Errorf("input %d %s: %w", k, c.corners[j].name, err)
				}
			}
			return nil
		},
		connSteps: float64(len(systems) * len(c.inits[0]) * c.steps),
		// The discrete solves stream arrays far larger than a core's
		// private caches. With the second vCPU idle, one-at-a-time
		// solves on the shared reference host ranged 330–433 ms
		// (bigpop) from run to run; with it held, 350–371 ms.
		holdIdle: true,
	}
	runSolveWork(b, w)
	return nil
}

// solveTracer is the traced counterpart of System.Run. Each traced
// solve runs three ways: System.Run untraced (the reference time), the
// span-recording replay, and Workspace.Step over the replay's states,
// which must reproduce each of them bit for bit.
type solveTracer struct {
	id         uint64
	order      *orderStats
	runTotal   time.Duration // untraced System.Run time
	stepTotal  time.Duration // Workspace.Step time over the same states
	stepMS     []float64     // mean Workspace.Step time of each traced solve
	stepAllocs uint64
	steps      uint64
}

func newSolveTracer() *solveTracer { return &solveTracer{order: newOrderStats()} }

// solve traces one run of sys from r0 under opts and returns the
// untraced result and its time. The replay runs as many steps as the
// untraced run took.
func (t *solveTracer) solve(b *bench, sys *core.System, rp *replayer, ws *core.Workspace, r0 []float64, opts core.RunOptions) (*core.RunResult, time.Duration, error) {
	t.id++
	t0 := time.Now()
	res, err := sys.Run(r0, opts)
	dt := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	t.runTotal += dt
	states, err := rp.solve(b.spans, t.id, r0, res.Steps)
	if err != nil {
		return nil, 0, err
	}
	if err := sameBits("replay final rates", states[res.Steps], res.Rates); err != nil {
		return nil, 0, err
	}
	st, n, err := verifySteps(ws, states)
	if err != nil {
		return nil, 0, err
	}
	if res.Steps > 0 {
		t.stepMS = append(t.stepMS, ms(st)/float64(res.Steps))
	}
	t.stepTotal += st
	t.stepAllocs += n
	t.steps += uint64(res.Steps)
	orderSteps(t.order, sys, ws, states)
	return res, dt, nil
}

// report sets the solver-layer metrics from everything traced.
func (t *solveTracer) report(b *bench) {
	l := b.spans
	b.set("queueing.observe_ns_per_elem", l.perElem("queueing.observe"), int(l.calls["queueing.observe"]))
	b.set("signal.gateway_ns_per_elem", l.perElem("signal.gateway"), int(l.calls["signal.gateway"]))
	b.set("queueing.share", l.share("core.run", "queueing.observe"), 0)
	b.set("signal.share", l.share("core.run", "signal.gateway", "signal.combine"), 0)
	b.set("signal.combine_ns_per_hop", l.perElem("signal.combine"), int(l.calls["signal.combine"]))
	b.set("control.adjust_ns_per_conn", l.perElem("control.adjust"), int(l.calls["control.adjust"]))
	b.set("core.step_ms_p50", median(t.stepMS), len(t.stepMS))
	b.set("core.run_overhead_share", 1-t.stepTotal.Seconds()/t.runTotal.Seconds(), 0)
	b.set("core.allocs_per_step", float64(t.stepAllocs)/float64(t.steps), int(t.steps))
	o := t.order
	if o.sorts > 0 {
		b.set("core.order_kept_frac", float64(o.kept)/float64(o.sorts), int(o.sorts))
	}
	if o.pairs > 0 {
		b.set("core.tie_frac", float64(o.ties)/float64(o.pairs), int(o.pairs))
	}
	runs := float64(l.calls["core.run"])
	fmt.Printf("accounting: traced self times sum to %.3f ms per solve; untraced System.Run %.3f ms per solve\n",
		float64(l.total["core.run"])/1e6/runs, ms(t.runTotal)/runs)
	l.selfTable("core.run")
}

// overhead is the traced replay's time over the untraced runs' less one.
func (t *solveTracer) overhead(b *bench) float64 {
	return float64(b.spans.total["core.run"])/float64(t.runTotal) - 1
}

// traceDiscrete is the traced run of bigpop and mesh: every corner of
// every input, cycling until the run's time is up.
func traceDiscrete(b *bench, c *discreteCase, systems []*core.System) error {
	opts := c.runOptions()
	replayers := make([]*replayer, len(systems))
	workspaces := make([]*core.Workspace, len(systems))
	for j, sys := range systems {
		replayers[j] = newReplayer(sys)
		workspaces[j] = sys.NewWorkspace()
	}
	tr := newSolveTracer()
	ds := newDigestSet(len(c.inits))
	cornerMS := make([][]float64, len(systems))
	deadline := time.Now().Add(b.phase(1))
	for k := 0; k == 0 || time.Now().Before(deadline); k++ {
		in := k % len(c.inits)
		results := make([]*core.RunResult, len(systems))
		failed := false
		for j, sys := range systems {
			res, dt, err := tr.solve(b, sys, replayers[j], workspaces[j], c.inits[in], opts)
			if err == nil && k < len(c.inits) {
				err = checkFinal(sys, res)
			}
			b.op(err)
			if err != nil {
				failed = true
				continue
			}
			results[j] = res
			cornerMS[j] = append(cornerMS[j], ms(dt))
		}
		if !failed {
			b.op(ds.verify(in, results))
		}
	}
	b.digest = ds.String()
	tr.report(b)
	if len(systems) == len(corners) {
		for j, cn := range corners {
			b.set("core.corner_ms."+cn.name, median(cornerMS[j]), len(cornerMS[j]))
		}
	}
	b.set("trace.overhead_frac", tr.overhead(b), 0)
	b.zeroLayers()
	return nil
}

// verifySteps re-runs Workspace.Step on every replayed state under one
// timer, then checks each result against the replay's next state bit
// for bit. It returns the total step time and the steps' heap
// allocations.
func verifySteps(ws *core.Workspace, states [][]float64) (time.Duration, uint64, error) {
	out := make([][]float64, len(states)-1)
	for t := range out {
		out[t] = make([]float64, len(states[0]))
	}
	m0 := mallocs()
	t0 := time.Now()
	for t := range out {
		if err := ws.Step(states[t], out[t]); err != nil {
			return 0, 0, err
		}
	}
	total := time.Since(t0)
	allocs := mallocs() - m0
	for t := range out {
		if err := sameBits(fmt.Sprintf("step %d", t), out[t], states[t+1]); err != nil {
			return 0, 0, err
		}
	}
	return total, allocs, nil
}

// orderSteps feeds every gateway-step's sort keys to the order
// statistics: the rate sort under Fair Share and the queue sort under
// individual feedback, the two sorts the kernels perform.
func orderSteps(o *orderStats, sys *core.System, ws *core.Workspace, states [][]float64) {
	net := sys.Network()
	_, fs := sys.Discipline().(queueing.FairShare)
	ind := sys.Style() == signal.Individual
	o.reset()
	var local []float64
	for t := 0; t+1 < len(states); t++ {
		obs, err := ws.Observe(states[t])
		if err != nil {
			return
		}
		for a := 0; a < net.NumGateways(); a++ {
			if fs {
				local = local[:0]
				for _, i := range net.Connections(a) {
					local = append(local, states[t][i])
				}
				o.observe(a, 0, local)
			}
			if ind {
				o.observe(a, 1, obs.Queues[a])
			}
		}
	}
}

func sameBits(what string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("%s: value %d is %v, want %v bit for bit", what, i, got[i], want[i])
		}
	}
	return nil
}
