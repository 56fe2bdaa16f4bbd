//go:build race

package graph

// raceEnabled reports whether the race detector instruments this test binary.
const raceEnabled = true
