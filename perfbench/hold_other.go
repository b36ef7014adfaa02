//go:build !amd64

package main

// spinPause busy-waits for n short iterations where the PAUSE
// instruction is not available.
func spinPause(n int) {
	for i := 0; i < n; i++ {
	}
}
