//go:build !race

package qcow

const raceEnabled = false
