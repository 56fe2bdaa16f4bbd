//go:build !race

package graph

// raceEnabled reports whether the race detector instruments this test binary;
// the allocation guard skips under it (a race build's sync.Pool drops items
// at random).
const raceEnabled = false
