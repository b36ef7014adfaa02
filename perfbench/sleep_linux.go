package main

import (
	"syscall"
	"time"
)

// sleepPrecise blocks the calling thread in nanosleep(2), which wakes
// within tens of microseconds of the deadline.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
