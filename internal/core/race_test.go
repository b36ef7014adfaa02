//go:build race

package core

// raceEnabled reports a -race build: the race detector makes sync.Pool
// drop items at random, so pooled allocation counts are not pinned.
const raceEnabled = true
