package main

import (
	"fmt"
	"math"
	"slices"

	"github.com/nettheory/feedbackflow/internal/core"
	"github.com/nettheory/feedbackflow/internal/queueing"
	"github.com/nettheory/feedbackflow/internal/signal"
)

// replayer performs core.Workspace.Step through the public kernel calls
// it is built from — queueing.ObserveInto, signal.GatewaySignalsBatched,
// signal.CombineBottleneck and Law.Adjust — on the network's own
// Connections/Route/Law data, wrapping each call in a span. Every
// replayed step is checked bitwise against Workspace.Step, so the
// per-layer times measure the computation the solver performs.
type replayer struct {
	sys    *core.System
	conns  [][]int     // conns[a]: Γ(a)
	mu     []float64   // mu[a]
	routes [][]int     // routes[i]: γ(i)
	slot   [][]int     // slot[i][hop]: index of i in Γ(route[hop])
	hopLat [][]float64 // hopLat[i][hop]: latency of route[hop]

	local, queues, sojourns, signals [][]float64 // per-gateway scratch
	perGw                            []float64
	bn                               []int
	qscr                             queueing.Scratch
	sscr                             signal.Scratch
	sig, delay                       []float64
}

func newReplayer(sys *core.System) *replayer {
	net := sys.Network()
	nG, nC := net.NumGateways(), net.NumConnections()
	p := &replayer{
		sys: sys, conns: make([][]int, nG), mu: make([]float64, nG),
		routes: make([][]int, nC), slot: make([][]int, nC), hopLat: make([][]float64, nC),
		local: make([][]float64, nG), queues: make([][]float64, nG),
		sojourns: make([][]float64, nG), signals: make([][]float64, nG),
		sig: make([]float64, nC), delay: make([]float64, nC),
	}
	index := make([]map[int]int, nG)
	for a := 0; a < nG; a++ {
		p.conns[a] = net.Connections(a)
		p.mu[a] = net.Gateway(a).Mu
		n := len(p.conns[a])
		p.local[a], p.queues[a] = make([]float64, n), make([]float64, n)
		p.sojourns[a], p.signals[a] = make([]float64, n), make([]float64, n)
		index[a] = make(map[int]int, n)
		for k, i := range p.conns[a] {
			index[a][i] = k
		}
	}
	maxPath := 0
	for i := 0; i < nC; i++ {
		p.routes[i] = net.Route(i)
		maxPath = max(maxPath, len(p.routes[i]))
		for _, a := range p.routes[i] {
			p.slot[i] = append(p.slot[i], index[a][i])
			p.hopLat[i] = append(p.hopLat[i], net.Gateway(a).Latency)
		}
	}
	p.perGw = make([]float64, maxPath)
	p.bn = make([]int, 0, maxPath)
	return p
}

// step replays one update of r into next under span parent.
func (p *replayer) step(l *spanLog, id uint64, parent int32, r, next []float64) error {
	sys := p.sys
	disc, style, b := sys.Discipline(), sys.Style(), sys.SignalFunc()
	st := l.begin("core.step", id, parent)
	for a, conns := range p.conns {
		local := p.local[a]
		for k, i := range conns {
			local[k] = r[i]
		}
		s := l.begin("queueing.observe", id, st)
		err := queueing.ObserveInto(disc, p.queues[a], p.sojourns[a], local, p.mu[a], &p.qscr)
		l.end(s, len(local))
		if err != nil {
			return fmt.Errorf("gateway %d: %w", a, err)
		}
		s = l.begin("signal.gateway", id, st)
		err = signal.GatewaySignalsBatched(p.signals[a], style, b, p.queues[a], &p.sscr)
		l.end(s, len(local))
		if err != nil {
			return fmt.Errorf("gateway %d: %w", a, err)
		}
	}
	const bottleneckTol = 1e-12 // core's bottleneck tolerance
	s := l.begin("signal.combine", id, st)
	hops := 0
	for i, route := range p.routes {
		perGw := p.perGw[:len(route)]
		d := 0.0
		for hop, a := range route {
			k := p.slot[i][hop]
			perGw[hop] = p.signals[a][k]
			d += p.hopLat[i][hop] + p.sojourns[a][k]
		}
		bi, err := signal.CombineBottleneck(perGw)
		if err != nil {
			return fmt.Errorf("connection %d: %w", i, err)
		}
		p.sig[i], p.delay[i] = bi, d
		bn := p.bn[:0]
		for hop, a := range route {
			if perGw[hop] >= bi-bottleneckTol {
				bn = append(bn, a)
			}
		}
		p.bn = bn
		hops += len(route)
	}
	l.end(s, hops)
	s = l.begin("control.adjust", id, st)
	for i := range r {
		v := r[i] + sys.Law(i).Adjust(r[i], p.sig[i], p.delay[i])
		if v < 0 || math.IsNaN(v) {
			v = 0
		}
		next[i] = v
	}
	l.end(s, len(r))
	l.end(st, len(r))
	return nil
}

// solve replays a fixed-horizon System.Run from r0 (NoEarlyStop, steps
// updates) under one root span and returns every visited state.
func (p *replayer) solve(l *spanLog, id uint64, r0 []float64, steps int) ([][]float64, error) {
	states := make([][]float64, steps+1)
	for t := range states {
		states[t] = make([]float64, len(r0))
	}
	copy(states[0], r0)
	root := l.begin("core.run", id, -1)
	for t := 0; t < steps; t++ {
		r, next := states[t], states[t+1]
		if err := p.step(l, id, root, r, next); err != nil {
			l.close()
			return nil, err
		}
		// Run's convergence bookkeeping, kept so the root's self time
		// carries the same work as the untraced loop.
		maxChange, maxRate := 0.0, 0.0
		for i := range r {
			maxChange = max(maxChange, math.Abs(next[i]-r[i]))
			maxRate = max(maxRate, next[i])
		}
		_ = maxChange <= 1e-10*(1+maxRate)
	}
	s := l.begin("core.observe", id, root)
	_, err := p.sys.Observe(states[steps])
	l.end(s, len(r0))
	l.end(root, steps)
	l.close()
	return states, err
}

// orderStats accumulates how often a gateway's stable sort order is the
// same as at the previous step, and how many adjacent sorted pairs tie.
type orderStats struct {
	kept, sorts int64 // sorts counts only steps that have a previous step
	ties, pairs int64
	prev        map[[2]int][]int // (gateway, which sort) → last order
}

func newOrderStats() *orderStats { return &orderStats{prev: map[[2]int][]int{}} }

// observe records the stable (key, index) order of keys at one
// gateway-step; which tells the rate sort (0) from the queue sort (1).
func (o *orderStats) observe(a, which int, keys []float64) {
	k := [2]int{a, which}
	idx := o.prev[k]
	last := append([]int(nil), idx...)
	if idx == nil {
		idx = make([]int, len(keys))
	}
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(x, y int) int {
		switch {
		case keys[x] < keys[y]:
			return -1
		case keys[x] > keys[y]:
			return 1
		}
		return 0
	})
	for j := 1; j < len(idx); j++ {
		if keys[idx[j]] == keys[idx[j-1]] {
			o.ties++
		}
	}
	o.pairs += int64(max(len(idx)-1, 0))
	if last != nil {
		o.sorts++
		if slices.Equal(last, idx) {
			o.kept++
		}
	}
	o.prev[k] = idx
}

// reset forgets the previous orders, at the start of a new solve.
func (o *orderStats) reset() { clear(o.prev) }
