// Package par is the one fan-out of the module's data-parallel host steps:
// the ingress hash scans, the in-degree count, the fingerprint rescan, the
// placement's block compile and the Fig 9 cells. Every step gets one
// goroutine per available CPU, at most one per item, and the caller's
// goroutine is always worker 0, so a step on one CPU spawns nothing.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers returns the worker count for n independent items:
// max(1, min(GOMAXPROCS, n)).
func Workers(n int) int {
	return max(1, min(runtime.GOMAXPROCS(0), n))
}

// Ranges splits [0, n) into Workers(n) contiguous ranges and runs fn(w, lo,
// hi) on range w, range 0 on the caller's goroutine and each other range on
// its own. It returns once every range is done. fn must write only to slots
// it owns by index, or to per-worker state keyed on w.
func Ranges(n int, fn func(w, lo, hi int)) {
	workers := Workers(n)
	if workers == 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			fn(w, n*w/workers, n*(w+1)/workers)
		}()
	}
	fn(0, 0, n/workers)
	wg.Wait()
}

// Tasks runs fn(w, i) for every i in [0, n) on Workers(n) workers that claim
// indices through a shared atomic counter, so uneven tasks balance
// themselves. Any worker may win any index: fn must key its output on i and
// keep only scratch space per worker w. At one worker the indices run in
// order on the caller's goroutine.
func Tasks(n int, fn func(w, i int)) {
	workers := Workers(n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	// Workers(workers) == workers, so Ranges starts one worker per unit range.
	var next atomic.Int64
	Ranges(workers, func(w, _, _ int) {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			fn(w, i)
		}
	})
}
