package service

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"proxygraph/internal/apps"
	"proxygraph/internal/gen"
	"proxygraph/internal/graph"
	"proxygraph/internal/trace"
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
	if list := svc.List("t", 0, 0); len(list) != len(ids) || list[0] != done[0] {
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
// past the result window, a finished job costs nothing that stays. A job's
// output on this graph is at least 16 KiB; the live heap may grow by 128 B
// per job over jobs 500..2000, and the journal image after 2,000 jobs may be
// no larger than the image after 500 plus one window's records.
func TestServiceMemoryPlateau(t *testing.T) {
	const (
		jobs      = 2000
		mark      = 500
		perJobB   = 128
		queue     = 64
		workers   = 2
		windowLen = queue + workers
	)
	g := powerLawGraph(t, 4096, 13)
	check := leakCheck(t)
	journal := NewMemJournal()
	svc, err := New(Config{
		Cluster:    caseTwo(t),
		Cache:      workload.NewPlacementCache(),
		QueueBound: queue,
		Workers:    workers,
		Journal:    journal,
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
	var batchBytes, markBytes int
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
		switch n + len(work) {
		case len(work):
			batchBytes = len(journal.Bytes()) - len(journalMagic)
		case mark:
			base = liveHeap()
			markBytes = len(journal.Bytes())
		}
	}
	perJob := (float64(liveHeap()) - float64(base)) / (jobs - mark)
	t.Logf("live heap grew %.0f B per job over jobs %d..%d", perJob, mark, jobs)
	if perJob > perJobB {
		t.Errorf("live heap grew %.0f B per job over jobs %d..%d, budget %d B", perJob, mark, jobs, perJobB)
	}
	endBytes, window := len(journal.Bytes()), windowLen*batchBytes/len(work)
	t.Logf("journal image %d B after job %d, %d B after job %d; one window's records are %d B", markBytes, mark, endBytes, jobs, window)
	if endBytes > markBytes+window {
		t.Errorf("journal image grew from %d B after job %d to %d B after job %d, more than one window's %d B", markBytes, mark, endBytes, jobs, window)
	}
	if c := svc.Counters(); c.JournalCompactions == 0 || c.TombstonesPruned == 0 {
		t.Errorf("no compaction in %d jobs: %+v", jobs, c)
	}
	svc.Close()
	check()
}

// TestServiceCompaction pins the compaction rule on a live service with a
// window of R = QueueBound+Workers = 3. Each time R finished jobs have left
// the window, the journal becomes a snapshot and those jobs, with their
// idempotency keys, leave the job table; what is left recovers to the same
// table and spend. A service without a journal prunes on the same trigger.
// Compaction adds no trace event: the journal events are one per append.
func TestServiceCompaction(t *testing.T) {
	const window = 2 + 1
	g := powerLawGraph(t, 256, 5)
	jobOf := func(i int) workload.Job {
		if i%2 == 0 {
			return workload.Job{App: apps.NewBFS(), Graph: g, Seed: uint64(i)}
		}
		return workload.Job{App: apps.NewConnectedComponents(), Graph: g, Seed: uint64(i)}
	}
	keyOf := func(i int) string { return fmt.Sprintf("req-%d", i) }
	for _, journaled := range []bool{true, false} {
		t.Run(fmt.Sprintf("journal=%v", journaled), func(t *testing.T) {
			check := leakCheck(t)
			journal := NewMemJournal()
			events := trace.NewRecorder()
			cfg := Config{Cluster: caseTwo(t), QueueBound: 2, Workers: 1, Trace: events}
			if journaled {
				cfg.Journal = journal
			}
			svc, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer check()
			defer svc.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()

			// 4R jobs one at a time: compactions at the 2R-th, 3R-th and
			// 4R-th completion, each pruning the R oldest.
			ids := make([]int, 4*window)
			for i := range ids {
				if ids[i], err = svc.SubmitKey(ctx, "t", keyOf(i), jobOf(i)); err != nil {
					t.Fatal(err)
				}
				if st, err := svc.Wait(ctx, ids[i]); err != nil || st.State != "done" {
					t.Fatalf("job %d: %+v %v", i, st, err)
				}
			}
			c := svc.Counters()
			wantCompactions := uint64(0)
			if journaled {
				wantCompactions = 3
			}
			if c.JournalCompactions != wantCompactions || c.TombstonesPruned != 3*window {
				t.Fatalf("counters: %+v; want %d compactions, %d pruned", c, wantCompactions, 3*window)
			}
			checkServiceLaws(t, svc, false)
			list := svc.List("", 0, 0)
			if len(list) != window || list[0].ID != ids[3*window] {
				t.Fatalf("job table after compaction: %+v, want jobs %v", list, ids[3*window:])
			}
			if _, err := svc.Status(ids[0]); !errors.Is(err, ErrUnknownJob) {
				t.Fatalf("pruned job's status: %v, want ErrUnknownJob", err)
			}
			journalEvents := 0
			for _, e := range events.Events {
				if e.Kind == trace.KindJournal {
					journalEvents++
				}
			}
			if journalEvents != int(c.JournalAppends) {
				t.Fatalf("%d journal events for %d appends", journalEvents, c.JournalAppends)
			}

			if journaled {
				rcfg := cfg
				rcfg.Trace = nil
				rcfg.Journal, rcfg.Recovery = NewMemJournalFrom(journal.Bytes())
				recovered, err := New(rcfg)
				if err != nil {
					t.Fatal(err)
				}
				got := recovered.List("", 0, 0)
				for i := range got {
					got[i].QueueWaitSeconds = list[i].QueueWaitSeconds
				}
				if !reflect.DeepEqual(got, list) {
					t.Fatalf("recovered job table:\n%+v\nwant\n%+v", got, list)
				}
				if !reflect.DeepEqual(recovered.Usage(), svc.Usage()) {
					t.Fatalf("recovered spend %+v, want %+v", recovered.Usage(), svc.Usage())
				}
				checkServiceLaws(t, recovered, false)
				recovered.Close()
			}

			// A listed job's key still dedups; a pruned job's key has lapsed.
			last := len(ids) - 1
			if id, err := svc.SubmitKey(ctx, "t", keyOf(last), jobOf(last)); err != nil || id != ids[last] {
				t.Fatalf("listed job's key: id %d, err %v; want %d", id, err, ids[last])
			}
			if id, err := svc.SubmitKey(ctx, "t", keyOf(0), jobOf(0)); err != nil || id <= ids[last] {
				t.Fatalf("pruned job's key: id %d, err %v; want a new job", id, err)
			}
		})
	}
}

// TestServiceListPages pages a 2,500-job table: every job appears exactly
// once, in ascending id order, and a page never exceeds MaxListPage.
func TestServiceListPages(t *testing.T) {
	const jobs = 2500
	m := newMachine(Config{QueueBound: jobs, TenantQueueBound: jobs, Workers: 1})
	for i := 0; i < jobs; i++ {
		if _, _, err := m.submit(0, []string{"a", "b"}[i%2], "", workload.Job{}, nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	svc := &Service{m: m}
	for _, tc := range []struct {
		tenant     string
		limit, max int
		want       int
	}{
		{"", 0, MaxListPage, jobs},
		{"", 2 * MaxListPage, MaxListPage, jobs},
		{"a", 333, 333, jobs / 2},
	} {
		var got []int
		for after := 0; ; {
			page := svc.List(tc.tenant, after, tc.limit)
			if len(page) > tc.max {
				t.Fatalf("%+v: page of %d", tc, len(page))
			}
			if len(page) == 0 {
				break
			}
			for _, st := range page {
				if st.ID <= after || tc.tenant != "" && st.Tenant != tc.tenant {
					t.Fatalf("%+v: job %d (%s) on the page after %d", tc, st.ID, st.Tenant, after)
				}
				got = append(got, st.ID)
				after = st.ID
			}
		}
		if len(got) != tc.want {
			t.Fatalf("%+v: paged %d jobs, want %d", tc, len(got), tc.want)
		}
		for i, id := range got {
			if want := i + 1; tc.tenant == "" && id != want || tc.tenant == "a" && id != 2*i+1 {
				t.Fatalf("%+v: job %d of the pages is id %d", tc, i, id)
			}
		}
	}
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
