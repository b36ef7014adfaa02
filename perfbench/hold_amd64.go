package main

// spinPause executes the PAUSE instruction n times (n > 0), which
// leaves the core's execution resources to its other hardware thread.
func spinPause(n int)
