package main

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// holdProcessors keeps n processors busy with PAUSE loops until the
// returned release is called, yielding to any runnable goroutine every
// few microseconds. On a shared host a vCPU left idle lets other
// tenants' load onto the core beside the measured solve; holding it is
// the user-space counterpart of disabling idle states for a benchmark.
func holdProcessors(n int) (release func()) {
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				spinPause(64)
				runtime.Gosched()
			}
		}()
	}
	return func() {
		stop.Store(true)
		wg.Wait()
	}
}
