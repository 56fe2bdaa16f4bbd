//go:build race

package engine

// raceEnabled reports whether the race detector instruments this test binary.
const raceEnabled = true
