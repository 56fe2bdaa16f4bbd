package engine

import (
	"sync"
	"sync/atomic"
)

// stealTasks runs fn(w, task) for every task in [0, tasks), distributing
// tasks over workers goroutines through a shared atomic claim counter — the
// work-stealing loop of the placement's block compile, one machine block per
// task. Worker w processes whichever tasks it wins, so fn must be safe for any
// (worker, task) pairing: the compile keys its output on the task and keeps
// only scratch space per worker.
//
// With one worker the loop runs inline on the caller's goroutine: no spawn,
// no atomics contention, identical task order to a plain loop.
func stealTasks(workers, tasks int, fn func(w, task int)) {
	if tasks <= 0 {
		return
	}
	if workers > tasks {
		workers = tasks
	}
	if workers <= 1 {
		for task := 0; task < tasks; task++ {
			fn(0, task)
		}
		return
	}
	var next int32
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				task := int(atomic.AddInt32(&next, 1)) - 1
				if task >= tasks {
					return
				}
				fn(w, task)
			}
		}(w)
	}
	wg.Wait()
}
