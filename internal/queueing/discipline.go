// Package queueing implements the gateway service-discipline models of
// Section 2.2 of the paper: the function Q(r) mapping a vector of
// Poisson sending rates to per-connection average queue lengths at an
// exponential server, for the FIFO and Fair Share disciplines, together
// with the feasibility constraints any realizable non-stalling
// discipline must satisfy, the robustness bound of Theorem 5, and the
// Table 1 priority decomposition.
//
// Queue lengths here are mean numbers in system (M/M/1 convention), so
// the fundamental function is g(x) = x/(1−x): the mean number in
// system of an M/M/1 queue at load x. Overload (load ≥ 1) is
// represented by +Inf queue entries rather than an error, because
// overload is a legitimate transient state of the flow-control
// iteration: the congestion signal saturates at 1 and the sources back
// off.
package queueing

import (
	"fmt"
	"math"

	"github.com/nettheory/feedbackflow/internal/order"
)

// Discipline computes steady-state per-connection queue statistics for
// one gateway. Implementations must be symmetric in the rate vector
// (datagram gateways have no a-priori knowledge of connections) and
// time-scale invariant: Q(c·r, c·μ) = Q(r, μ).
type Discipline interface {
	// Name identifies the discipline ("FIFO", "FairShare").
	Name() string

	// Queues returns the average queue length Q_i of each connection,
	// given sending rates r and server rate mu. Overloaded connections
	// have Q_i = +Inf; zero-rate connections have Q_i = 0. It returns an
	// error for invalid input (negative or non-finite rates, mu <= 0).
	Queues(r []float64, mu float64) ([]float64, error)

	// SojournTimes returns the mean time in system W_i of each
	// connection's packets (Little's law W_i = Q_i / r_i), using the
	// analytic zero-rate limit for probe connections with r_i = 0.
	SojournTimes(r []float64, mu float64) ([]float64, error)
}

// G is the M/M/1 occupancy function g(x) = x/(1−x). It returns +Inf
// for x ≥ 1 and panics for negative or NaN x: a negative load is
// always a caller bug, never a model state.
func G(x float64) float64 {
	if x < 0 || math.IsNaN(x) {
		panic(fmt.Sprintf("queueing: g(%v) undefined", x))
	}
	if x >= 1 {
		return math.Inf(1)
	}
	return x / (1 - x)
}

// GInv inverts g: GInv(q) = q/(1+q), mapping a target total queue to
// the load that produces it. GInv(+Inf) = 1.
func GInv(q float64) float64 {
	if q < 0 || math.IsNaN(q) {
		panic(fmt.Sprintf("queueing: g⁻¹(%v) undefined", q))
	}
	if math.IsInf(q, 1) {
		return 1
	}
	return q / (1 + q)
}

// validate checks a rate vector and server rate, returning the total
// load ρ_tot = Σ r_i / μ.
func validate(r []float64, mu float64) (float64, error) {
	if len(r) == 0 {
		return 0, fmt.Errorf("queueing: empty rate vector")
	}
	if mu <= 0 || math.IsNaN(mu) || math.IsInf(mu, 0) {
		return 0, fmt.Errorf("queueing: invalid service rate %v", mu)
	}
	sum := 0.0
	for i, ri := range r {
		if ri < 0 || math.IsNaN(ri) || math.IsInf(ri, 0) {
			return 0, fmt.Errorf("queueing: invalid rate r[%d] = %v", i, ri)
		}
		sum += ri
	}
	return sum / mu, nil
}

// TotalQueue returns the aggregate mean queue Q_tot = g(ρ_tot). It is
// the same for every non-stalling discipline (work conservation), a
// fact the paper uses to make aggregate congestion signals insensitive
// to the service discipline.
func TotalQueue(r []float64, mu float64) (float64, error) {
	rho, err := validate(r, mu)
	if err != nil {
		return 0, err
	}
	return G(rho), nil
}

// Scratch holds the reusable working storage an InPlace discipline
// needs between calls: a sort-order buffer, two float64 buffers and
// the radix scratch of the shared sort. The zero value is ready to
// use; buffers grow on demand and are then reused, so steady-state
// evaluation performs no allocations. A Scratch is not safe for
// concurrent use — give each goroutine its own.
type Scratch struct {
	idx    []int
	f1, f2 []float64
	ord    *order.Scratch // radix scratch; nil until a gateway reaches order.Cutoff
	sorted bool           // idx holds the rate order of the last evaluation
}

// Grow pre-sizes the scratch for an n-connection gateway, so that
// even the first ObserveInto call on it allocates nothing. Growing is
// otherwise automatic (and amortized free) on first use; pre-sizing
// exists for callers — core.Workspace — that size all hot columns at
// plan-compile time.
func (s *Scratch) Grow(n int) { s.grow(n) }

// ShareSort makes the scratch sort with o, which the caller may share
// with other kernels (signal.Scratch.ShareSort) evaluated on the same
// goroutine: the sorts run one at a time, so one set of radix buffers
// serves them all.
func (s *Scratch) ShareSort(o *order.Scratch) { s.ord = o }

// grow sizes the scratch buffers for an n-connection gateway.
func (s *Scratch) grow(n int) {
	if cap(s.idx) < n {
		s.idx = make([]int, n)
		s.f1 = make([]float64, n)
		s.f2 = make([]float64, n)
	}
	s.idx = s.idx[:n]
	s.f1 = s.f1[:n]
	s.f2 = s.f2[:n]
	if n >= order.Cutoff {
		if s.ord == nil {
			s.ord = new(order.Scratch)
		}
		s.ord.Grow(n)
	}
}

// Order returns the permutation that sorted the rates of the last
// queueing.ObserveInto call on this scratch — 0..n−1 stably ordered by
// ascending rate — or nil when that call's discipline did not sort.
// Fair Share queues are non-decreasing in the rates, so this is
// usually also the queue order the individual congestion measure
// needs (signal.GatewaySignalsOrdered verifies it before use). The
// slice is owned by the scratch and overwritten by the next call.
func (s *Scratch) Order() []int {
	if !s.sorted {
		return nil
	}
	return s.idx
}

// order fills s.idx with 0..n-1 stably sorted by ascending rate — the
// priority ordering shared by both Fair Share variants — and returns
// it.
func (s *Scratch) order(r []float64) []int {
	s.grow(len(r))
	for i := range s.idx {
		s.idx[i] = i
	}
	order.Stable(s.idx, r, s.ord)
	s.sorted = true
	return s.idx
}

// InPlace is implemented by disciplines that can evaluate their queue
// model into caller-provided buffers without allocating. The results
// must be bit-identical to the allocating Queues and SojournTimes
// methods — ObserveInto is a performance path, never a different
// model.
type InPlace interface {
	Discipline

	// ObserveInto writes Queues into q and SojournTimes into w (both
	// of length len(r)), using scr for any intermediate storage.
	ObserveInto(q, w, r []float64, mu float64, scr *Scratch) error
}

// ObserveInto evaluates d's queues and sojourn times at (r, mu) into q
// and w. Disciplines implementing InPlace are evaluated without
// allocation; any other Discipline falls back to the allocating
// methods with results copied into the buffers, so callers get one
// uniform zero-garbage entry point either way (modulo the fallback's
// own allocations). Afterwards scr.Order() reports the rate order the
// discipline sorted, if it sorted.
//
// The ffc:hotpath directive marks the zero-allocation contract; the
// hotalloc analyzer rejects allocating constructs in functions
// carrying it.
//
//ffc:hotpath
func ObserveInto(d Discipline, q, w, r []float64, mu float64, scr *Scratch) error {
	if len(q) != len(r) || len(w) != len(r) {
		return fmt.Errorf("queueing: buffers %d/%d for %d rates", len(q), len(w), len(r))
	}
	if scr != nil {
		scr.sorted = false
	}
	if ip, ok := d.(InPlace); ok {
		return ip.ObserveInto(q, w, r, mu, scr)
	}
	qq, err := d.Queues(r, mu)
	if err != nil {
		return err
	}
	ww, err := d.SojournTimes(r, mu)
	if err != nil {
		return err
	}
	copy(q, qq)
	copy(w, ww)
	return nil
}
