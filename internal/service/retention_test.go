package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"proxygraph/internal/apps"
	"proxygraph/internal/gen"
	"proxygraph/internal/graph"
	"proxygraph/internal/workload"
)

// powerLawGraph generates a power-law graph of the given size, one no other
// test shares.
func powerLawGraph(t *testing.T, vertices int64, seed uint64) *graph.Graph {
	t.Helper()
	g, err := gen.Generate(gen.Spec{Name: "retention", Vertices: vertices, Edges: 2 * vertices, Kind: gen.KindPowerLaw}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestServiceResultWindow pins the retention contract: a service holds the
// results of its last QueueBound+Workers completions. One completion more
// expires the oldest result, and that job still answers Status, Wait, List
// and keyed resubmission with the charges it had.
func TestServiceResultWindow(t *testing.T) {
	g := powerLawGraph(t, 256, 5)
	check := leakCheck(t)
	svc, err := New(Config{Cluster: caseTwo(t), QueueBound: 2, Workers: 1, Journal: NewMemJournal()})
	if err != nil {
		t.Fatal(err)
	}
	defer check()
	defer svc.Close()

	const window = 2 + 1 // QueueBound + Workers
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	jobOf := func(i int) workload.Job {
		if i%2 == 0 {
			return workload.Job{App: apps.NewBFS(), Graph: g, Seed: uint64(i)}
		}
		return workload.Job{App: apps.NewConnectedComponents(), Graph: g, Seed: uint64(i)}
	}
	keyOf := func(i int) string { return fmt.Sprintf("req-%d", i) }
	ids := make([]int, window+1)
	done := make([]JobStatus, window+1)
	for i := range ids {
		if ids[i], err = svc.SubmitKey(ctx, "t", keyOf(i), jobOf(i)); err != nil {
			t.Fatal(err)
		}
		if done[i], err = svc.Wait(ctx, ids[i]); err != nil || done[i].State != "done" {
			t.Fatalf("job %d: %+v %v", i, done[i], err)
		}
		if done[i].ExecSeconds <= 0 || done[i].EnergyJoules <= 0 {
			t.Fatalf("job %d has no charges: %+v", i, done[i])
		}
	}

	if res, err := svc.Result(ids[0]); !errors.Is(err, ErrResultExpired) || res != nil {
		t.Fatalf("oldest job's result: %v, %v; want ErrResultExpired", res, err)
	}
	for i := 1; i < len(ids); i++ {
		res, err := svc.Result(ids[i])
		if err != nil || res == nil || res.Output == nil {
			t.Fatalf("job %d of the window: %v, %v", i, res, err)
		}
	}

	if st, err := svc.Status(ids[0]); err != nil || st != done[0] {
		t.Fatalf("expired job's status %+v %v, want %+v", st, err, done[0])
	}
	if st, err := svc.Wait(ctx, ids[0]); err != nil || st != done[0] {
		t.Fatalf("expired job's wait %+v %v, want %+v", st, err, done[0])
	}
	if list := svc.List("t"); len(list) != len(ids) || list[0] != done[0] {
		t.Fatalf("list %+v, want first row %+v", list, done[0])
	}
	if id, err := svc.SubmitKey(ctx, "t", keyOf(0), jobOf(0)); err != nil || id != ids[0] {
		t.Fatalf("keyed resubmission of the expired job: %d %v, want %d", id, err, ids[0])
	}
	if st, _ := svc.Status(ids[0]); st != done[0] {
		t.Fatalf("resubmission changed the expired job: %+v, want %+v", st, done[0])
	}
	c := svc.Counters()
	if c.ResultsExpired != 1 || c.Completed != uint64(len(ids)) || c.Deduped != 1 {
		t.Fatalf("counters: %+v", c)
	}
}

// TestServiceReleasesFinishedGraphs pins that a finished job does not pin its
// input: with no placement cache, nothing but the job references the
// submitted graph, so once the job is done the graph is collectable.
func TestServiceReleasesFinishedGraphs(t *testing.T) {
	check := leakCheck(t)
	svc, err := New(Config{Cluster: caseTwo(t), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer check()
	defer svc.Close()

	released := make(chan struct{})
	id := submitCollectable(t, svc, released)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if st, err := svc.Wait(ctx, id); err != nil || st.State != "done" {
		t.Fatalf("job: %+v %v", st, err)
	}
	for gc := 0; gc < 20; gc++ {
		runtime.GC()
		select {
		case <-released:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the finished job's graph survived 20 collections")
}

// submitCollectable submits a BFS over a fresh graph and returns the job id;
// released closes once that graph is collected. Past its return, only the
// service references the graph.
func submitCollectable(t *testing.T, svc *Service, released chan struct{}) int {
	t.Helper()
	g := powerLawGraph(t, 512, 9)
	runtime.AddCleanup(g, func(ch chan struct{}) { close(ch) }, released)
	id, err := svc.Submit(context.Background(), "t", workload.Job{App: apps.NewBFS(), Graph: g, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// TestServiceMemoryPlateau pins bounded memory for a long-running service:
// past the result window, a finished job costs its tombstone and its journal
// records, not its output. A job's output on this graph is at least 16 KiB;
// the budget is 2 KiB per job.
func TestServiceMemoryPlateau(t *testing.T) {
	const (
		jobs     = 2000
		mark     = 500
		perJobKB = 2
	)
	g := powerLawGraph(t, 4096, 13)
	check := leakCheck(t)
	svc, err := New(Config{
		Cluster: caseTwo(t),
		Cache:   workload.NewPlacementCache(),
		Workers: 2,
		Journal: NewMemJournal(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	work := []workload.Job{
		{App: apps.NewBFS(), Graph: g, Seed: 1},
		{App: apps.NewConnectedComponents(), Graph: g, Seed: 1},
	}
	var base uint64
	ids := make([]int, len(work))
	for n := 0; n < jobs; n += len(work) {
		for i, job := range work {
			if ids[i], err = svc.Submit(ctx, "t", job); err != nil {
				t.Fatalf("job %d: %v", n+i, err)
			}
		}
		for i, id := range ids {
			if st, err := svc.Wait(ctx, id); err != nil || st.State != "done" {
				t.Fatalf("job %d: %+v %v", n+i, st, err)
			}
		}
		if n+len(work) == mark {
			base = liveHeap()
		}
	}
	perJob := (float64(liveHeap()) - float64(base)) / (jobs - mark)
	t.Logf("live heap grew %.0f B per job over jobs %d..%d", perJob, mark, jobs)
	if perJob > perJobKB<<10 {
		t.Errorf("live heap grew %.0f B per job over jobs %d..%d, budget %d B", perJob, mark, jobs, perJobKB<<10)
	}
	svc.Close()
	check()
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
