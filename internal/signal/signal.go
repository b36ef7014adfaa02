// Package signal implements the congestion-signalling side of feedback
// flow control (Section 2.3.1 of the paper): signal functions B
// mapping a congestion measure C ∈ [0, ∞] to a signal b ∈ [0, 1], the
// aggregate and individual congestion measures computed from gateway
// queue lengths, and the bottleneck combination b_i = max_a b^a_i.
package signal

import (
	"fmt"
	"math"

	"github.com/nettheory/feedbackflow/internal/order"
)

// Func is a congestion signal function B. The paper requires B to be
// strictly increasing with B(0) = 0 and B(∞) = 1; implementations in
// this package satisfy that, and Inverse exists so the Theorem 2 fair
// steady state can be constructed.
type Func interface {
	// Name identifies the signal function.
	Name() string
	// Eval returns B(c) ∈ [0,1]. c must be non-negative (or +Inf).
	Eval(c float64) float64
	// Inverse returns the congestion C with B(C) = b, for b ∈ [0,1).
	// b = 1 maps to +Inf. Values outside [0,1] are an error.
	Inverse(b float64) (float64, error)
}

func checkCongestion(c float64) {
	if c < 0 || math.IsNaN(c) {
		panic(fmt.Sprintf("signal: congestion measure %v is invalid", c))
	}
}

func checkSignalRange(b float64) error {
	if b < 0 || b > 1 || math.IsNaN(b) {
		return fmt.Errorf("signal: %v outside [0,1]", b)
	}
	return nil
}

// Rational is the paper's worked-example signal B(C) = C/(1+C). Under
// aggregate feedback with C = g(ρ) it makes b = ρ exactly, which is
// what produces the clean 1−ηN eigenvalue in the Section 3.3
// instability example.
type Rational struct{}

// Name implements Func.
func (Rational) Name() string { return "C/(1+C)" }

// Eval implements Func.
func (Rational) Eval(c float64) float64 {
	checkCongestion(c)
	if math.IsInf(c, 1) {
		return 1
	}
	return c / (1 + c)
}

// Inverse implements Func.
func (Rational) Inverse(b float64) (float64, error) {
	if err := checkSignalRange(b); err != nil {
		return 0, err
	}
	if b == 1 {
		return math.Inf(1), nil
	}
	return b / (1 - b), nil
}

// Power is B(C) = (C/(1+C))^K. K = 2 yields the quadratic map of the
// Section 3.3 chaos example; K = 1 reduces to Rational.
type Power struct {
	K float64 // exponent, must be > 0
}

// Name implements Func.
func (p Power) Name() string { return fmt.Sprintf("(C/(1+C))^%g", p.K) }

// Eval implements Func.
func (p Power) Eval(c float64) float64 {
	checkCongestion(c)
	if p.K <= 0 || math.IsNaN(p.K) {
		panic(fmt.Sprintf("signal: Power exponent %v must be positive", p.K))
	}
	if math.IsInf(c, 1) {
		return 1
	}
	return math.Pow(c/(1+c), p.K)
}

// Inverse implements Func.
func (p Power) Inverse(b float64) (float64, error) {
	if err := checkSignalRange(b); err != nil {
		return 0, err
	}
	if p.K <= 0 || math.IsNaN(p.K) {
		return 0, fmt.Errorf("signal: Power exponent %v must be positive", p.K)
	}
	if b == 1 {
		return math.Inf(1), nil
	}
	root := math.Pow(b, 1/p.K)
	return root / (1 - root), nil
}

// Exponential is B(C) = 1 − e^(−C/θ): a signal family that is *not*
// the rational one, used to confirm the qualitative results do not
// depend on the particular B.
type Exponential struct {
	Theta float64 // scale, must be > 0
}

// Name implements Func.
func (e Exponential) Name() string { return fmt.Sprintf("1-exp(-C/%g)", e.Theta) }

// Eval implements Func.
func (e Exponential) Eval(c float64) float64 {
	checkCongestion(c)
	if e.Theta <= 0 || math.IsNaN(e.Theta) {
		panic(fmt.Sprintf("signal: Exponential scale %v must be positive", e.Theta))
	}
	if math.IsInf(c, 1) {
		return 1
	}
	return 1 - math.Exp(-c/e.Theta)
}

// Inverse implements Func.
func (e Exponential) Inverse(b float64) (float64, error) {
	if err := checkSignalRange(b); err != nil {
		return 0, err
	}
	if e.Theta <= 0 || math.IsNaN(e.Theta) {
		return 0, fmt.Errorf("signal: Exponential scale %v must be positive", e.Theta)
	}
	if b == 1 {
		return math.Inf(1), nil
	}
	return -e.Theta * math.Log(1-b), nil
}

// Style selects between the two kinds of congestion feedback the paper
// analyzes.
type Style int

const (
	// Aggregate feedback: every connection through a gateway receives
	// the same signal B(Q_tot), blind to who causes the congestion.
	Aggregate Style = iota
	// Individual feedback: connection i receives B(C_i) with
	// C_i = Σ_k min(Q_k, Q_i), reflecting its own contribution and
	// ignoring queues larger than its own.
	Individual
)

// String implements fmt.Stringer.
func (s Style) String() string {
	switch s {
	case Aggregate:
		return "aggregate"
	case Individual:
		return "individual"
	}
	return fmt.Sprintf("Style(%d)", int(s))
}

// AggregateCongestion returns C = Σ Q_k, the total queue length.
func AggregateCongestion(q []float64) float64 {
	c := 0.0
	for _, qk := range q {
		checkCongestion(qk)
		c += qk
	}
	return c
}

// IndividualCongestion returns C_i = Σ_k min(Q_k, Q_i): the paper's
// individual congestion measure, which charges connection i for its
// own queue and for the part of every other queue not exceeding its
// own. For the smallest queue this equals N·Q_i; for the largest it
// equals the aggregate measure.
func IndividualCongestion(q []float64, i int) float64 {
	if i < 0 || i >= len(q) {
		panic(fmt.Sprintf("signal: connection %d out of range [0,%d)", i, len(q)))
	}
	qi := q[i]
	checkCongestion(qi)
	c := 0.0
	for _, qk := range q {
		checkCongestion(qk)
		c += math.Min(qk, qi)
	}
	return c
}

// Scratch holds the reusable working storage of the batched
// individual-feedback kernel: a queue-sort permutation, a congestion
// buffer and the radix scratch of the shared sort. The zero value is
// ready to use; buffers grow on demand and are then reused, so
// steady-state evaluation performs no allocations. A Scratch is not
// safe for concurrent use — give each goroutine its own.
type Scratch struct {
	idx []int
	c   []float64
	ord *order.Scratch // radix scratch; nil until a gateway reaches order.Cutoff
}

// Grow pre-sizes the scratch for an n-connection gateway, so that
// even the first batched call on it allocates nothing. Growing is
// otherwise automatic on first use; pre-sizing exists for callers —
// core.Workspace — that size all hot columns at plan-compile time.
func (s *Scratch) Grow(n int) {
	if cap(s.idx) < n {
		s.idx = make([]int, n)
		s.c = make([]float64, n)
	}
	s.idx = s.idx[:n]
	s.c = s.c[:n]
	if n >= order.Cutoff {
		if s.ord == nil {
			s.ord = new(order.Scratch)
		}
		s.ord.Grow(n)
	}
}

// ShareSort makes the scratch sort with o, which the caller may share
// with other kernels (queueing.Scratch.ShareSort) evaluated on the same
// goroutine: the sorts run one at a time, so one set of radix buffers
// serves them all.
func (s *Scratch) ShareSort(o *order.Scratch) { s.ord = o }

// order returns the stable ascending queue order of q: hint itself
// when it already is that order (order.IsStrict), otherwise s.idx
// sorted afresh. +Inf queues sort last, which is exactly where the
// prefix-sum congestion form needs them.
func (s *Scratch) order(q []float64, hint []int) []int {
	s.Grow(len(q))
	if hint != nil && order.IsStrict(hint, q) {
		return hint
	}
	for i := range s.idx {
		s.idx[i] = i
	}
	order.Stable(s.idx, q, s.ord)
	return s.idx
}

// IndividualCongestionInto writes C_i = Σ_k min(Q_k, Q_i) for every
// connection into c (len(c) must equal len(q)) in one batched
// O(N log N) pass: with queues sorted ascending, every queue sorted
// below position pos contributes itself and the n−pos queues from pos
// up contribute Q_i, so
//
//	C_i = Σ_{k<pos(i)} Q_(k) + (n−pos(i))·Q_i
//
// falls out of a single running prefix sum — against N separate
// IndividualCongestion scans, an O(N²) → O(N log N) change. Overloaded
// (+Inf) queues sort last and saturate both the multiplied term and
// the running prefix, reproducing the naive scan's +Inf results.
// Values agree with IndividualCongestion within the
// summation-reordering tolerance documented in docs/PERFORMANCE.md
// (bitwise when the prefix sums are exact, e.g. dyadic queue values).
// Like IndividualCongestion it panics on negative or NaN queues.
//
//ffc:hotpath
func IndividualCongestionInto(c, q []float64, scr *Scratch) error {
	return individualCongestionInto(c, q, nil, scr)
}

// individualCongestionInto is IndividualCongestionInto with a
// candidate queue order (see GatewaySignalsOrdered).
//
//ffc:hotpath
func individualCongestionInto(c, q []float64, hint []int, scr *Scratch) error {
	if len(c) != len(q) {
		return fmt.Errorf("signal: %d-slot buffer for %d queues", len(c), len(q))
	}
	for _, qk := range q {
		checkCongestion(qk)
	}
	n := len(q)
	idx := scr.order(q, hint)
	cum := 0.0 // Σ of sorted queues strictly below this position
	for pos, i := range idx {
		qi := q[i]
		c[i] = cum + float64(n-pos)*qi
		cum += qi
	}
	return nil
}

// GatewaySignals returns the per-connection signals b^a_i emitted by
// one gateway whose current queue vector is q, under the given
// feedback style and signal function.
func GatewaySignals(style Style, b Func, q []float64) ([]float64, error) {
	out := make([]float64, len(q))
	if err := GatewaySignalsInto(out, style, b, q); err != nil {
		return nil, err
	}
	return out, nil
}

// GatewaySignalsInto is GatewaySignals writing into a caller-provided
// buffer (len(out) must equal len(q)). It performs no allocations, so
// the flow-control iteration can evaluate signals into reusable
// scratch every step (see core.Workspace). The ffc:hotpath directive
// puts that promise under the hotalloc analyzer.
//
//ffc:hotpath
func GatewaySignalsInto(out []float64, style Style, b Func, q []float64) error {
	if len(out) != len(q) {
		return fmt.Errorf("signal: %d-slot buffer for %d queues", len(out), len(q))
	}
	switch style {
	case Aggregate:
		s := b.Eval(AggregateCongestion(q))
		for i := range out {
			out[i] = s
		}
	case Individual:
		for i := range out {
			out[i] = b.Eval(IndividualCongestion(q, i))
		}
	default:
		return fmt.Errorf("signal: unknown feedback style %d", int(style))
	}
	return nil
}

// GatewaySignalsBatched is GatewaySignalsInto with a Scratch: under
// individual feedback the congestion measures come from the batched
// prefix-sum kernel (IndividualCongestionInto — one sort plus one
// sweep) instead of N independent scans, taking the per-gateway signal
// pass from O(N²) to O(N log N). The aggregate style is bit-identical
// to GatewaySignalsInto; the individual style agrees within the
// summation-reordering tolerance documented in docs/PERFORMANCE.md.
// It is GatewaySignalsOrdered without an order hint.
//
//ffc:hotpath
func GatewaySignalsBatched(out []float64, style Style, b Func, q []float64, scr *Scratch) error {
	return GatewaySignalsOrdered(out, style, b, q, nil, scr)
}

// GatewaySignalsOrdered is GatewaySignalsBatched with a candidate
// queue order: under individual feedback, when hint is the stable
// ascending order of q (checked in O(N) by order.IsStrict), the sweep
// walks it and the sort is skipped. Any other hint — nil, the wrong
// length, out of order, tied queues not in index order (rounding ties
// and a +Inf overload tail produce these) — falls back to sorting, so
// the signals are bit-identical to the nil-hint call whatever the hint.
// The step kernel passes the Fair Share rate order
// (queueing.Scratch.Order): Fair Share queues are non-decreasing in
// the rates, so the check usually passes and each gateway step sorts
// once instead of twice.
//
//ffc:hotpath
func GatewaySignalsOrdered(out []float64, style Style, b Func, q []float64, hint []int, scr *Scratch) error {
	if len(out) != len(q) {
		return fmt.Errorf("signal: %d-slot buffer for %d queues", len(out), len(q))
	}
	switch style {
	case Aggregate:
		s := b.Eval(AggregateCongestion(q))
		for i := range out {
			out[i] = s
		}
	case Individual:
		scr.Grow(len(q))
		c := scr.c
		if err := individualCongestionInto(c, q, hint, scr); err != nil {
			return err
		}
		for i, ci := range c {
			out[i] = b.Eval(ci)
		}
	default:
		return fmt.Errorf("signal: unknown feedback style %d", int(style))
	}
	return nil
}

// CombineBottleneck implements b_i = max_a b^a_i over a connection's
// path (bottleneck flow control in the sense of [Jaf81]): given the
// signals a connection received from each gateway it crosses, the
// combined signal is the largest.
func CombineBottleneck(perGateway []float64) (float64, error) {
	if len(perGateway) == 0 {
		return 0, fmt.Errorf("signal: no per-gateway signals to combine")
	}
	b := 0.0
	for _, s := range perGateway {
		if err := checkSignalRange(s); err != nil {
			return 0, err
		}
		if s > b {
			b = s
		}
	}
	return b, nil
}
