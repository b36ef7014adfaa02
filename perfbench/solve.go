package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"github.com/nettheory/feedbackflow/internal/core"
)

// solveWork is one solver workload as the untraced harness drives it:
// a fixed set of seeded inputs, each solved to a fixed horizon.
type solveWork struct {
	inputs int
	// solve runs the solves of input k (one per system the workload
	// sweeps) and returns their results.
	solve func(k int) ([]*core.RunResult, error)
	// check applies the output gates to a first-pass result; it runs
	// outside the timed phases.
	check func(k int, res []*core.RunResult) error
	// connSteps is the connection-steps one solve of any input performs
	// (for the fluid backend: represented population × steps).
	connSteps float64
	// holdIdle keeps the processors the light phase leaves idle busy
	// (holdProcessors) while it runs.
	holdIdle bool
}

// ratesDigest hashes the final rate vectors bit for bit.
func ratesDigest(res []*core.RunResult) [32]byte {
	h := sha256.New()
	var buf [8]byte
	for _, r := range res {
		for _, v := range r.Rates {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	var d [32]byte
	h.Sum(d[:0])
	return d
}

// digestSet holds the first-pass digest of every input. Later solves of
// the same input must reproduce it exactly.
type digestSet struct {
	mu    sync.Mutex
	first [][32]byte
	have  []bool
}

func newDigestSet(n int) *digestSet {
	return &digestSet{first: make([][32]byte, n), have: make([]bool, n)}
}

// verify records or checks input k's digest.
func (d *digestSet) verify(k int, res []*core.RunResult) error {
	got := ratesDigest(res)
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.have[k] {
		d.first[k], d.have[k] = got, true
		return nil
	}
	if got != d.first[k] {
		return fmt.Errorf("input %d: final-rate digest %x differs from its first solve %x", k, got[:8], d.first[k][:8])
	}
	return nil
}

// String is the digest over all inputs, the value a run prints.
func (d *digestSet) String() string {
	h := sha256.New()
	for _, f := range d.first {
		h.Write(f[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// firstPass solves every input once — the warm-up, excluded from the
// measurements — applies the output gates and records the digests.
func firstPass(b *bench, w *solveWork, ds *digestSet) {
	t0 := time.Now()
	for k := 0; k < w.inputs; k++ {
		res, err := w.solve(k)
		if err == nil {
			err = w.check(k, res)
		}
		if err == nil {
			err = ds.verify(k, res)
		}
		b.op(err)
	}
	fmt.Printf("warmup_s %.4f (%d inputs, one solve each)\n", time.Since(t0).Seconds(), w.inputs)
}

// runSolveWork measures a solver workload untraced. The light phase
// solves one input at a time; the heavy phase keeps runtime.NumCPU()
// solves in flight, closed loop. The two phases share the run's time
// 55:45, and every figure is a median over its whole phase: on a shared
// host, neighbours' load comes and goes within seconds, and a median
// over the whole run varied less from run to run than the best of
// several shorter windows did.
//
// max_rps is the heavy phase's completion rate taken from its median
// latency, runtime.NumCPU() ÷ p50: the count of completions over the
// phase's wall time halved whenever the host withdrew a vCPU for part
// of the phase, which the median rides out.
func runSolveWork(b *bench, w *solveWork) {
	ds := newDigestSet(w.inputs)
	firstPass(b, w, ds)
	b.digest = ds.String()

	release := func() {}
	if w.holdIdle {
		release = holdProcessors(runtime.NumCPU() - 1)
	}
	light := runLight(b, w, ds, b.phase(0.55))
	release()
	heavy := runHeavy(b, w, ds, b.phase(0.45))
	b.set("heap_peak_mb", solveHeapPeak(w), w.inputs)

	n := len(light.lat)
	b.set("solve_ms_p50", median(light.lat), n)
	b.set("allocs_per_solve", slices.Min(light.allocs), n)
	b.set("conn_steps_per_s", w.connSteps/(median(light.lat)/1e3), n)
	b.set("light.lat_ms_p50", median(light.lat), n)
	b.set("heavy.lat_ms_p50", median(heavy.lat), len(heavy.lat))
	b.set("max_rps", float64(runtime.NumCPU())/(median(heavy.lat)/1e3), len(heavy.lat))
	// The tails are printed, not reported: on the shared host they
	// followed the neighbours' load, not the program (README.md).
	fmt.Printf("light p90 %.4f ms, p99 %.4f ms (n=%d); heavy p99 %.4f ms (n=%d), %.4f solves/s over the phase\n",
		tail(light.lat, 0.9), tail(light.lat, 0.99), n, tail(heavy.lat, 0.99), len(heavy.lat), heavy.rate())
}

// lightWindow is the light phase: every solve's latency and
// allocations.
type lightWindow struct {
	lat, allocs []float64
}

// runLight solves one input at a time, cycling through the inputs, for
// dur and at least three solves.
func runLight(b *bench, w *solveWork, ds *digestSet, dur time.Duration) lightWindow {
	var lw lightWindow
	deadline := time.Now().Add(dur)
	for k := 0; len(lw.lat) < 3 || time.Now().Before(deadline); k++ {
		m0 := mallocs()
		t0 := time.Now()
		res, err := w.solve(k % w.inputs)
		dt := time.Since(t0)
		m1 := mallocs()
		if err == nil {
			err = ds.verify(k%w.inputs, res)
		}
		b.op(err)
		lw.lat = append(lw.lat, ms(dt))
		lw.allocs = append(lw.allocs, float64(m1-m0))
	}
	return lw
}

// heavyWindow is the heavy phase: the latency of every solve in it and
// the phase's wall time.
type heavyWindow struct {
	lat  []float64
	wall time.Duration
}

func (h heavyWindow) rate() float64 {
	if h.wall == 0 {
		return 0
	}
	return float64(len(h.lat)) / h.wall.Seconds()
}

// runHeavy keeps runtime.NumCPU() solves in flight, closed loop, for
// dur; each worker finishes the solve it has started.
func runHeavy(b *bench, w *solveWork, ds *digestSet, dur time.Duration) heavyWindow {
	workers := runtime.NumCPU()
	var mu sync.Mutex
	var hw heavyWindow
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := g; k == g || time.Now().Before(deadline); k += workers {
				t0 := time.Now()
				res, err := w.solve(k % w.inputs)
				dt := time.Since(t0)
				if err == nil {
					err = ds.verify(k%w.inputs, res)
				}
				mu.Lock()
				b.op(err)
				hw.lat = append(hw.lat, ms(dt))
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	hw.wall = time.Since(start)
	return hw
}

// solveHeapPeak is the heap a solve needs: after a full collection,
// and with collection off, each input is solved once and the heap's
// object bytes read while its result is still held — the workload's
// live data plus everything one solve allocates. The largest over the
// inputs, in MiB. Sampling the heap during the timed phases instead
// lands at random points of the collector's sawtooth and differed by
// up to 20% between runs.
func solveHeapPeak(w *solveWork) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	peak := 0.0
	for k := 0; k < w.inputs; k++ {
		// Two collections empty every sync.Pool, whose cached
		// workspaces would otherwise count or not by chance.
		runtime.GC()
		runtime.GC()
		res, _ := w.solve(k)
		peak = max(peak, heapMB())
		runtime.KeepAlive(res)
	}
	return peak
}

// measureSetup runs setup at least minReps times and for at least
// setupMinTime, and returns the median seconds and the repetitions.
func measureSetup(minReps int, setup func() error) (float64, int, error) {
	var ts []float64
	start := time.Now()
	for len(ts) < minReps || (time.Since(start) < setupMinTime && len(ts) < setupMaxReps) {
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, 0, err
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts), len(ts), nil
}

// Set-up is repeated until its median is steady: at least half a
// second of repetitions, bounded for cheap set-ups.
const (
	setupMinTime = 500 * time.Millisecond
	setupMaxReps = 200
)
