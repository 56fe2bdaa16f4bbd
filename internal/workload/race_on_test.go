//go:build race

package workload

// raceEnabled reports whether the race detector instruments this test binary.
const raceEnabled = true
