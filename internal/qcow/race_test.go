//go:build race

package qcow

// raceEnabled reports a race-detector build. Under it sync.Pool drops
// items at random, so allocation counts say nothing about the code.
const raceEnabled = true
