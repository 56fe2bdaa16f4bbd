//go:build !race

package engine

// raceEnabled reports whether the race detector instruments this test binary;
// the byte guards skip under it (instrumentation allocates).
const raceEnabled = false
