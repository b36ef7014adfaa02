package fluid

import (
	"fmt"
	"math"

	"github.com/nettheory/feedbackflow/internal/core"
	"github.com/nettheory/feedbackflow/internal/finite"
	"github.com/nettheory/feedbackflow/internal/order"
	"github.com/nettheory/feedbackflow/internal/queueing"
	"github.com/nettheory/feedbackflow/internal/signal"
)

// workspace holds every buffer one integration needs — flat
// per-(gateway, class) observation scratch, per-class stage and drift
// vectors — so repeated derivative evaluations allocate nothing. One
// workspace per goroutine; System.Run draws from the internal pool.
type workspace struct {
	// Per-gateway scratch, sized to the largest single gateway.
	rloc []float64     // member rates, local order
	idx  []int         // sort permutation
	ord  order.Scratch // radix scratch of the sort

	// Flat per-(gateway, member-class) columns, gateway a's block at
	// [off[a], off[a+1]).
	q, soj, sig []float64

	// Per-class columns.
	bR, dR         []float64 // combined signal/delay at the accepted point
	bT, dT         []float64 // same, at integrator stage points (throwaway)
	k1, k2, k3, k4 []float64 // stage derivatives
	kh             []float64 // drift at the adaptive midpoint
	rs             []float64 // stage state
	y1, y2, mid    []float64 // full-step, half-pair, and midpoint states
}

func (s *System) newWorkspace() *workspace {
	nC := len(s.weights)
	w := &workspace{
		rloc: make([]float64, s.maxGw),
		idx:  make([]int, s.maxGw),
		q:    make([]float64, s.total),
		soj:  make([]float64, s.total),
		sig:  make([]float64, s.total),
		bR:   make([]float64, nC),
		dR:   make([]float64, nC),
		bT:   make([]float64, nC),
		dT:   make([]float64, nC),
		k1:   make([]float64, nC),
		k2:   make([]float64, nC),
		k3:   make([]float64, nC),
		k4:   make([]float64, nC),
		kh:   make([]float64, nC),
		rs:   make([]float64, nC),
		y1:   make([]float64, nC),
		y2:   make([]float64, nC),
		mid:  make([]float64, nC),
	}
	w.ord.Grow(s.maxGw)
	return w
}

// derivInto evaluates the fluid drift Φ at the class rate vector r:
// per-gateway weighted observation, per-class bottleneck combine, law
// adjust, and the boundary projection (a class at rate 0 with negative
// drift stays at 0, the ODE counterpart of the discrete max(0, ·)).
// f receives the drift, b and d the combined signal and delay at r.
//
//ffc:hotpath
func (s *System) derivInto(w *workspace, r, f, b, d []float64) {
	for a := range s.members {
		s.observeGateway(a, r, w)
	}
	for c := range f {
		slots := s.slots[c]
		route := s.routes[c]
		bc := 0.0
		dc := 0.0
		for hop, sl := range slots {
			if v := w.sig[sl]; v > bc {
				bc = v
			}
			dc += s.lat[route[hop]] + w.soj[sl]
		}
		b[c] = bc
		d[c] = dc
		fc := s.laws[c].Adjust(r[c], bc, dc)
		if r[c] == 0 && fc < 0 {
			fc = 0
		}
		f[c] = fc
	}
}

// observeGateway fills gateway a's flat block of queues, sojourns, and
// signals from the current class rates.
//
//ffc:hotpath
func (s *System) observeGateway(a int, r []float64, w *workspace) {
	mem := s.members[a]
	n := len(mem)
	lo := s.off[a]
	q := w.q[lo : lo+n]
	soj := w.soj[lo : lo+n]
	rl := w.rloc[:n]
	for k, c := range mem {
		rl[k] = r[c]
	}
	if s.fairshare {
		s.fsObserve(a, rl, q, soj, w)
	} else {
		s.fifoObserve(a, rl, q, soj)
	}
	s.signalsInto(a, w.sig[lo:lo+n], q, w)
}

// fsObserve is the weighted Fair Share kernel: the forward
// substitution of queueing.FairShare.ObserveInto with every
// connection-count multiplicity replaced by the class weight. Within a
// block of equal rates the discrete recursion gives every member the
// same queue (the cumulative load is constant across the block and the
// per-member division telescopes), so one class of weight w at rate
// r_c produces exactly the queue w discrete members would: q_c =
// (g(L) − ΣQ_below)/W_remaining. Overload latches +Inf from the first
// overloaded class upward, zero-rate classes see a bare service time,
// and the tiny-negative clamp mirrors the discrete kernel — all so the
// degenerate one-member class is bit-identical to the discrete path.
//
//ffc:hotpath
func (s *System) fsObserve(a int, rl, q, soj []float64, w *workspace) {
	n := len(rl)
	mu := s.mu[a]
	mem := s.members[a]
	idx := w.idx[:n]
	for k := range idx {
		idx[k] = k
	}
	order.Stable(idx, rl, &w.ord)
	wtot := s.gwWeight[a]
	sumQ := 0.0
	cum := 0.0       // Σ w·r over classes sorted strictly below
	processed := 0.0 // Σ w over classes sorted strictly below (zero-rate included)
	for pos, k := range idx {
		ri := rl[k]
		wc := s.weights[mem[k]]
		if ri == 0 {
			q[k] = 0
			processed += wc
			continue
		}
		wrem := wtot - processed
		load := (cum + wrem*ri) / mu
		if load >= 1 {
			for _, j := range idx[pos:] {
				q[j] = math.Inf(1)
			}
			break
		}
		qi := (queueing.G(load) - sumQ) / wrem
		if qi < 0 {
			qi = 0
		}
		q[k] = qi
		sumQ += wc * qi
		cum += wc * ri
		processed += wc
	}
	for k, ri := range rl {
		switch {
		case ri == 0:
			soj[k] = 1 / mu
		case math.IsInf(q[k], 1):
			soj[k] = math.Inf(1)
		default:
			soj[k] = q[k] / ri
		}
	}
}

// fifoObserve is the weighted FIFO kernel: ρ = Σ w·r/μ, every class's
// queue scales with its own load, every packet sees the same sojourn.
//
//ffc:hotpath
func (s *System) fifoObserve(a int, rl, q, soj []float64) {
	mu := s.mu[a]
	mem := s.members[a]
	sum := 0.0
	for k, ri := range rl {
		sum += s.weights[mem[k]] * ri
	}
	rho := sum / mu
	if rho >= 1 {
		for k, ri := range rl {
			if ri > 0 {
				q[k] = math.Inf(1)
			} else {
				q[k] = 0
			}
			soj[k] = math.Inf(1)
		}
		return
	}
	sj := 1 / (mu * (1 - rho))
	for k, ri := range rl {
		q[k] = (ri / mu) / (1 - rho)
		soj[k] = sj
	}
}

// signalsInto is the weighted counterpart of
// signal.GatewaySignalsBatched: aggregate congestion is the weighted
// queue total; individual congestion sorts classes by queue and reads
// C_c = Σ_{below} w·q + W_remaining·q_c from the running prefix, which
// reproduces Σ_k min(Q_k, Q_c) over the expanded population. Under
// Fair Share, w.idx still holds fsObserve's rate order, which is the
// queue order whenever it passes order.IsStrict — the same reuse as
// signal.GatewaySignalsOrdered — so the sort runs only on a miss.
//
//ffc:hotpath
func (s *System) signalsInto(a int, sig, q []float64, w *workspace) {
	mem := s.members[a]
	if s.style == signal.Aggregate {
		c := 0.0
		for k := range q {
			c += s.weights[mem[k]] * q[k]
		}
		v := s.b.Eval(c)
		for k := range sig {
			sig[k] = v
		}
		return
	}
	n := len(q)
	idx := w.idx[:n]
	if !s.fairshare || !order.IsStrict(idx, q) {
		for k := range idx {
			idx[k] = k
		}
		order.Stable(idx, q, &w.ord)
	}
	wtot := s.gwWeight[a]
	cum := 0.0
	processed := 0.0
	for _, k := range idx {
		qi := q[k]
		wc := s.weights[mem[k]]
		sig[k] = s.b.Eval(cum + (wtot-processed)*qi)
		cum += wc * qi
		processed += wc
	}
}

// checkRates validates a caller-supplied rate vector at the Run and
// Observe boundaries (integrator stage states are clamped internally
// and skip this).
func (s *System) checkRates(r []float64) error {
	if len(r) != len(s.weights) {
		return fmt.Errorf("fluid: %d rates for %d classes", len(r), len(s.weights))
	}
	for i, v := range r {
		if finite.IsBad(v) || v < 0 {
			return fmt.Errorf("fluid: invalid rate r[%d] = %v", i, v)
		}
	}
	return nil
}

// Observe computes the class-level observation at r. The shape mirrors
// core.Observation with classes in place of connections: Signals and
// Delays are class-indexed, Queues[a] lists gateway a's member classes
// in system class order, Bottlenecks[c] lists the gateways attaining
// class c's combined signal. Freshly allocated and caller-owned.
func (s *System) Observe(r []float64) (*core.Observation, error) {
	if err := s.checkRates(r); err != nil {
		return nil, err
	}
	w := s.acquire()
	defer s.release(w)
	s.derivInto(w, r, w.k1, w.bR, w.dR)
	o := &core.Observation{
		Signals:     append([]float64(nil), w.bR...),
		Delays:      append([]float64(nil), w.dR...),
		Queues:      make([][]float64, len(s.members)),
		Bottlenecks: make([][]int, len(s.weights)),
	}
	for a, mem := range s.members {
		row := make([]float64, len(mem))
		copy(row, w.q[s.off[a]:s.off[a]+len(mem)])
		o.Queues[a] = row
	}
	const bottleneckTol = 1e-12 // same tolerance as core's combine
	for c := range o.Bottlenecks {
		var bn []int
		for hop, a := range s.routes[c] {
			if w.sig[s.slots[c][hop]] >= o.Signals[c]-bottleneckTol {
				bn = append(bn, a)
			}
		}
		o.Bottlenecks[c] = bn
	}
	return o, nil
}
