//go:build !linux

package main

import "time"

// sleepPrecise falls back to the runtime's timer where nanosleep(2) is
// not available; generator lag (driver.lag_ms_p99) then shows its
// coarser wake-ups.
func sleepPrecise(d time.Duration) { time.Sleep(d) }
