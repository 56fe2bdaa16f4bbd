package par

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// sweep runs check at every GOMAXPROCS and item count the package must
// handle: none, one, fewer items than workers, and many.
func sweep(t *testing.T, check func(t *testing.T, n int)) {
	for _, procs := range []int{1, 2, 3, 8} {
		prev := runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, procs - 1, 10000} {
			t.Run(fmt.Sprintf("procs=%d/n=%d", procs, n), func(t *testing.T) {
				if want := max(1, min(procs, n)); Workers(n) != want {
					t.Fatalf("Workers(%d) = %d, want %d", n, Workers(n), want)
				}
				check(t, n)
			})
		}
		runtime.GOMAXPROCS(prev)
	}
}

func TestRangesCoverContiguously(t *testing.T) {
	sweep(t, func(t *testing.T, n int) {
		workers := Workers(n)
		type span struct{ lo, hi int }
		spans := make([]span, workers)
		seen := make([]int, workers)
		Ranges(n, func(w, lo, hi int) {
			if w < 0 || w >= workers {
				t.Errorf("worker %d outside [0, %d)", w, workers)
				return
			}
			spans[w] = span{lo, hi}
			seen[w]++
		})
		next := 0
		for w, s := range spans {
			if seen[w] != 1 {
				t.Fatalf("range %d ran %d times", w, seen[w])
			}
			if s.lo != next || s.hi < s.lo {
				t.Fatalf("range %d is [%d, %d), want it to start at %d", w, s.lo, s.hi, next)
			}
			next = s.hi
		}
		if next != n {
			t.Fatalf("ranges end at %d, want %d", next, n)
		}
	})
}

func TestTasksRunEachIndexOnce(t *testing.T) {
	sweep(t, func(t *testing.T, n int) {
		workers := Workers(n)
		var mu sync.Mutex
		var order []int
		calls := make([]int, n)
		Tasks(n, func(w, i int) {
			if w < 0 || w >= workers {
				t.Errorf("index %d on worker %d outside [0, %d)", i, w, workers)
			}
			mu.Lock()
			calls[i]++
			order = append(order, i)
			mu.Unlock()
		})
		for i, c := range calls {
			if c != 1 {
				t.Fatalf("index %d ran %d times", i, c)
			}
		}
		if workers == 1 {
			for k, i := range order {
				if i != k {
					t.Fatalf("one worker ran index %d at position %d", i, k)
				}
			}
		}
	})
}
