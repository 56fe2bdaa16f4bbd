//go:build !race

package apps

// raceEnabled reports whether the race detector instruments this test binary;
// the allocation guards skip under it (instrumentation allocates).
const raceEnabled = false
