//go:build race

package apps

// raceEnabled reports whether the race detector instruments this test binary.
const raceEnabled = true
