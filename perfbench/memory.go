package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

const (
	heapObjects = "/memory/classes/heap/objects:bytes"
	heapLive    = "/gc/heap/live:bytes"
)

// heapSampleEvery is heapPeak's sampling period: long enough that the
// sampler's wake-ups cost the measured work nothing noticeable.
const heapSampleEvery = 25 * time.Millisecond

// heapPeak samples the live heap — the bytes the last collection found
// reachable — every heapSampleEvery on its own goroutine and keeps the
// largest value seen. The heap's object bytes, sampled instead, landed
// at random points of the collector's sawtooth and spread by 15% from
// run to run.
type heapPeak struct {
	stop chan struct{}
	wg   sync.WaitGroup
	mu   sync.Mutex
	peak float64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			h.sample()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapPeak) sample() {
	v := readMB(heapLive)
	h.mu.Lock()
	h.peak = max(h.peak, v)
	h.mu.Unlock()
}

// Stop ends sampling, collects once more so that the live heap as the
// run ends counts too, and returns the peak in MiB.
func (h *heapPeak) Stop() float64 {
	close(h.stop)
	h.wg.Wait()
	runtime.GC()
	h.sample()
	return h.peak
}

// heapMB returns the heap's object bytes now, in MiB.
func heapMB() float64 { return readMB(heapObjects) }

// readMB reads one runtime/metrics byte count, in MiB.
func readMB(name string) float64 {
	s := [1]metrics.Sample{{Name: name}}
	metrics.Read(s[:])
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}
