// Package order is the one sort the solver kernels use: a stable
// permutation sort of connection (or class) indices by a float64 key.
// The Fair Share class loads L_i = Σ_k min(r_k, r_i)/μ and the
// individual congestion measure C_i = Σ_k min(Q_k, Q_i) are order
// statistics, so every gateway evaluation walks its population in
// ascending key order; this package produces that order.
//
// Stable returns exactly the permutation a stable comparison sort with
// the comparator "a < b → −1, a > b → +1, else 0" returns — the one the
// kernels were first written against. For keys without NaN that
// comparator is a strict weak order (−0 and +0 compare equal), so the
// stable result is unique and any stable algorithm reproduces it bit
// for bit: small inputs use an insertion sort, large ones an LSD radix
// sort over the keys' IEEE-754 bit patterns.
package order

import "math"

// Cutoff is the population at which Stable switches from insertion
// sort to the radix sort. It sits at the crossover of the two on
// uniformly random keys (BenchmarkStablePerm in this package): below
// it the insertion sort's O(n²) moves are cheaper than clearing and
// scanning the radix histogram, above it the radix sort's O(n) passes
// win. It is also the population from which a Scratch holds radix
// buffers, so smaller gateways carry none.
const Cutoff = 128

const (
	digitBits = 8
	buckets   = 1 << digitBits
	digits    = 64 / digitBits
)

// Scratch holds the radix sort's buffers: two columns of (key, index)
// pairs and the per-digit histograms. The zero value is ready to use;
// Grow sizes it ahead of time so that Stable allocates nothing. Inputs
// shorter than Cutoff never touch it. A Scratch is not safe for
// concurrent use.
type Scratch struct {
	a, b []entry
	hist *[digits][buckets]int
}

// entry is one radix element: the order-preserving key bits and the
// index they belong to, moved together so each scatter writes one
// contiguous 16-byte record.
type entry struct {
	key uint64
	idx int
}

// Grow sizes the scratch for inputs of up to n elements. Below Cutoff
// it does nothing: those inputs are insertion-sorted in place.
func (s *Scratch) Grow(n int) {
	if n < Cutoff || cap(s.a) >= n {
		return
	}
	s.a = make([]entry, n)
	s.b = make([]entry, n)
	if s.hist == nil {
		s.hist = new([digits][buckets]int)
	}
}

// Stable stably sorts idx by ascending keys[idx[k]]: entries with
// equal keys (−0 and +0 included) keep their relative order in idx.
// Every idx entry must index keys, and no key may be NaN (the result is
// then unspecified). Inputs of Cutoff or more elements use s, which
// must then be non-nil, growing it if it is smaller than len(idx).
//
//ffc:hotpath
func Stable(idx []int, keys []float64, s *Scratch) {
	if len(idx) < Cutoff {
		insertion(idx, keys)
		return
	}
	s.Grow(len(idx))
	radix(idx, keys, s)
}

// IsStrict reports whether idx is the stable ascending order of keys
// over the identity labelling: len(idx) == len(keys), every entry is
// in range, and the pairs (keys[idx[k]], idx[k]) strictly increase.
// When it holds, idx is a permutation of 0..n−1 and equals what Stable
// produces from the identity, so a caller holding a candidate order
// can verify it in one O(n) pass instead of sorting.
//
//ffc:hotpath
func IsStrict(idx []int, keys []float64) bool {
	n := len(keys)
	if len(idx) != n {
		return false
	}
	prev := -1
	pk := 0.0
	for k, i := range idx {
		if uint(i) >= uint(n) {
			return false
		}
		ki := keys[i]
		if k > 0 && !(pk < ki || (pk == ki && prev < i)) {
			return false
		}
		prev, pk = i, ki
	}
	return true
}

// insertion is the small-n path: a stable insertion sort, shifting
// only past strictly greater keys.
//
//ffc:hotpath
func insertion(idx []int, keys []float64) {
	for k := 1; k < len(idx); k++ {
		v := idx[k]
		kv := keys[v]
		j := k
		for j > 0 && keys[idx[j-1]] > kv {
			idx[j] = idx[j-1]
			j--
		}
		idx[j] = v
	}
}

// radixKey maps a non-NaN float64 to a uint64 whose unsigned order is
// the float order: −0 is folded onto +0 first (the comparator treats
// them as equal, their bit patterns differ), then non-negative values
// get the sign bit set and negative values have every bit flipped.
func radixKey(f float64) uint64 {
	if f == 0 {
		return 1 << 63
	}
	u := math.Float64bits(f)
	if u>>63 != 0 {
		return ^u
	}
	return u | 1<<63
}

// radix is the large-n path: an LSD radix sort of (key, index) pairs
// over eight 8-bit digits. One pass over the input fills every
// digit's histogram; a digit whose values all fall in one bucket (the
// sign and high exponent bits of same-signed, similar-magnitude keys)
// leaves the order unchanged and is skipped. Each scatter pass is
// stable, so equal keys keep their input order.
//
//ffc:hotpath
func radix(idx []int, keys []float64, s *Scratch) {
	n := len(idx)
	src, dst := s.a[:n], s.b[:n]
	hist := s.hist
	*hist = [digits][buckets]int{}
	for k, i := range idx {
		u := radixKey(keys[i])
		src[k] = entry{u, i}
		hist[0][byte(u)]++
		hist[1][byte(u>>8)]++
		hist[2][byte(u>>16)]++
		hist[3][byte(u>>24)]++
		hist[4][byte(u>>32)]++
		hist[5][byte(u>>40)]++
		hist[6][byte(u>>48)]++
		hist[7][byte(u>>56)]++
	}
	for d := range hist {
		shift := uint(d * digitBits)
		h := &hist[d]
		if h[byte(src[0].key>>shift)] == n {
			continue
		}
		sum := 0
		for b, c := range h {
			h[b] = sum
			sum += c
		}
		for _, e := range src {
			b := byte(e.key >> shift)
			p := h[b]
			h[b] = p + 1
			dst[p] = e
		}
		src, dst = dst, src
	}
	for k, e := range src {
		idx[k] = e.idx
	}
}
