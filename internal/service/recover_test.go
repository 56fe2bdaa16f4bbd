package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"proxygraph/internal/engine"
	"proxygraph/internal/rng"
	"proxygraph/internal/trace"
	"proxygraph/internal/workload"
)

// floatsClose compares charged accounting with the chaos suite's relative
// tolerance (recovered values are bit copies; re-executed ones re-add floats).
func floatsClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// jobCatalog builds a Resolve function over a fixed job set, the way a real
// front end resolves recovered (app, graph, seed) identities from its loaded
// graph catalog (cmd/serve does exactly this).
func jobCatalog(jobs []workload.Job) func(app, graphName string, seed uint64) (workload.Job, error) {
	byName := make(map[string]workload.Job)
	for _, job := range jobs {
		app, g := jobNames(job)
		byName[app+"|"+g] = job
	}
	return func(app, graphName string, seed uint64) (workload.Job, error) {
		job, ok := byName[app+"|"+graphName]
		if !ok {
			return workload.Job{}, fmt.Errorf("unknown job %s on %s", app, graphName)
		}
		if job.Seed != seed {
			return workload.Job{}, fmt.Errorf("seed mismatch for %s on %s: %d != %d", app, graphName, seed, job.Seed)
		}
		return job, nil
	}
}

// TestServiceKillRecover is the crash-recovery headline: run a bursty
// 3-tenant load against a journaling service, "kill -9" it at seeded journal
// offsets (truncate the image mid-record, mid-magic, anywhere), recover a new
// service from the surviving prefix, idempotently resubmit everything, and
// require the exact same terminal states, the same per-job charges, stable
// ids for every acknowledged job, and tenant budgets without a double charge
// at any offset.
func TestServiceKillRecover(t *testing.T) {
	cl := caseTwo(t)
	jobs, err := workload.RandomJobs(8, 256, 81)
	if err != nil {
		t.Fatal(err)
	}
	resolve := jobCatalog(jobs)
	tenants := []Tenant{
		{Name: "gold", Priority: 2},
		{Name: "silver", Priority: 1},
		{Name: "bronze", Priority: 0},
	}
	baseCfg := func() Config {
		return Config{
			Cluster: cl,
			Tenants: tenants,
			// No cache and no ingress charge: a job's charge is a pure function
			// of (app, graph, seed, cluster), so re-executed work charges what
			// the first execution did and budget comparisons are exact.
			Workers:    2,
			QueueBound: 32,
			Seed:       7,
		}
	}
	keyOf := func(i int) string { return fmt.Sprintf("req-%d", i) }
	tenantOf := func(i int) string { return tenants[i%len(tenants)].Name }

	// Baseline: run everything to completion, keep the journal image.
	journal := NewMemJournal()
	cfg := baseCfg()
	cfg.Journal = journal
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	baseID := make(map[string]int)
	for i, job := range jobs {
		id, err := svc.SubmitKey(context.Background(), tenantOf(i), keyOf(i), job)
		if err != nil {
			t.Fatalf("job %d rejected: %v", i, err)
		}
		baseID[keyOf(i)] = id
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	baseStatus := make(map[string]JobStatus)
	for i := range jobs {
		st, err := svc.Status(baseID[keyOf(i)])
		if err != nil {
			t.Fatal(err)
		}
		if st.State != "done" {
			t.Fatalf("baseline job %d state %s: %s", i, st.State, st.Error)
		}
		baseStatus[keyOf(i)] = st
	}
	baseSpend := make(map[string][2]float64)
	for _, u := range svc.Usage() {
		baseSpend[u.Tenant.Name] = [2]float64{u.SpentSeconds, u.SpentJoules}
	}
	svc.Close()
	img := journal.Bytes()

	// Crash offsets: both edges plus seeded cuts everywhere in between —
	// mid-magic, mid-frame, between a submit and its admit, between a
	// complete and its budget charge. The invariants must hold at ALL of them.
	offsets := []int{0, len(journalMagic) / 2, len(img) - 1, len(img)}
	for i := uint64(0); i < 5; i++ {
		offsets = append(offsets, int(rng.Hash3(81, 0x6b696c6c, i)%uint64(len(img))))
	}

	for _, cut := range offsets {
		t.Run(fmt.Sprintf("offset-%d", cut), func(t *testing.T) {
			check := leakCheck(t)
			j2, rec := NewMemJournalFrom(img[:cut])
			// What the surviving prefix acknowledged: submits whose admit
			// record also made it. Those ids must be stable across recovery.
			acked := make(map[string]int)
			subKeys := make(map[int]string)
			for _, r := range rec.Records {
				switch r.Kind {
				case RecordSubmit:
					subKeys[int(r.Seq)] = r.Key
				case RecordAdmit:
					if k, ok := subKeys[r.ID]; ok {
						acked[k] = r.ID
					}
				}
			}

			cfg := baseCfg()
			cfg.Journal = j2
			cfg.Recovery = rec
			cfg.Resolve = resolve
			svc2, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer check()
			defer svc2.Close()

			// The client's crash protocol: resubmit everything with the same
			// idempotency keys. Survivors dedup, lost work re-admits — and
			// nothing conflicts.
			ids := make(map[string]int)
			for i, job := range jobs {
				id, err := svc2.SubmitKey(context.Background(), tenantOf(i), keyOf(i), job)
				if err != nil {
					t.Fatalf("resubmit %d after recovery: %v", i, err)
				}
				ids[keyOf(i)] = id
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			if err := svc2.Drain(ctx); err != nil {
				t.Fatal(err)
			}

			for i := range jobs {
				k := keyOf(i)
				st, err := svc2.Status(ids[k])
				if err != nil {
					t.Fatal(err)
				}
				want := baseStatus[k]
				if st.State != "done" {
					t.Fatalf("cut %d job %s: state %s: %s", cut, k, st.State, st.Error)
				}
				if st.Tenant != want.Tenant || st.App != want.App || st.Graph != want.Graph {
					t.Fatalf("cut %d job %s: identity changed: %+v", cut, k, st)
				}
				if !floatsClose(st.ExecSeconds, want.ExecSeconds) || !floatsClose(st.EnergyJoules, want.EnergyJoules) {
					t.Fatalf("cut %d job %s: charges %g/%g, want %g/%g",
						cut, k, st.ExecSeconds, st.EnergyJoules, want.ExecSeconds, want.EnergyJoules)
				}
				if id, ok := acked[k]; ok && ids[k] != id {
					t.Fatalf("cut %d job %s: acknowledged id %d changed to %d", cut, k, id, ids[k])
				}
			}
			// Tenant budgets: recovered charges plus re-executed charges must
			// equal the baseline spend exactly once per job — a double charge
			// (complete record AND derived charge AND live re-charge) would
			// show up here at the offsets that split record pairs.
			for _, u := range svc2.Usage() {
				want, ok := baseSpend[u.Tenant.Name]
				if !ok {
					continue
				}
				if !floatsClose(u.SpentSeconds, want[0]) || !floatsClose(u.SpentJoules, want[1]) {
					t.Fatalf("cut %d tenant %s: spend %g/%g, want %g/%g",
						cut, u.Tenant.Name, u.SpentSeconds, u.SpentJoules, want[0], want[1])
				}
			}
			c := svc2.Counters()
			if got := int(c.Deduped); got != len(acked) {
				t.Fatalf("cut %d: deduped %d, want %d (one per acknowledged job)", cut, got, len(acked))
			}
			// The journal left behind must itself recover cleanly.
			if _, _, err := DecodeJournal(j2.Bytes()); err != nil {
				t.Fatalf("cut %d: post-recovery journal not clean: %v", cut, err)
			}
		})
	}
}

// TestServiceRecoveredResultExpired pins what recovery rebuilds of a done job:
// the journal records charges, not outputs, so the recovered job is a
// tombstone. Result reports ErrResultExpired instead of a result with no
// output, and Status reports the charges the job had before the crash.
func TestServiceRecoveredResultExpired(t *testing.T) {
	jobs, err := workload.RandomJobs(2, 256, 121)
	if err != nil {
		t.Fatal(err)
	}
	journal := NewMemJournal()
	cfg := Config{Cluster: caseTwo(t), Workers: 1, Journal: journal}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var before []JobStatus
	for _, job := range jobs {
		id, err := svc.Submit(ctx, "t", job)
		if err != nil {
			t.Fatal(err)
		}
		st, err := svc.Wait(ctx, id)
		if err != nil || st.State != "done" {
			t.Fatalf("job %d: %+v %v", id, st, err)
		}
		before = append(before, st)
	}
	svc.Close()

	check := leakCheck(t)
	cfg.Journal, cfg.Recovery = NewMemJournalFrom(journal.Bytes())
	recovered, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer check()
	defer recovered.Close()
	for _, want := range before {
		if res, err := recovered.Result(want.ID); !errors.Is(err, ErrResultExpired) || res != nil {
			t.Fatalf("recovered job %d: result %+v, err %v; want ErrResultExpired", want.ID, res, err)
		}
		st, err := recovered.Status(want.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != want.State || st.ExecSeconds != want.ExecSeconds ||
			st.IngressSeconds != want.IngressSeconds || st.EnergyJoules != want.EnergyJoules {
			t.Fatalf("recovered job %d: %+v, before the crash %+v", want.ID, st, want)
		}
	}
}

// TestServiceIdempotentResubmit pins the dedup contract on a live service:
// same key + same work returns the original id without re-executing or
// re-charging; same key + different work is a client bug (ErrKeyConflict).
func TestServiceIdempotentResubmit(t *testing.T) {
	cl := caseTwo(t)
	jobs, err := workload.RandomJobs(3, 256, 91)
	if err != nil {
		t.Fatal(err)
	}
	check := leakCheck(t)
	svc, err := New(Config{Cluster: cl, Workers: 2, Journal: NewMemJournal()})
	if err != nil {
		t.Fatal(err)
	}
	defer check()
	defer svc.Close()

	id, err := svc.SubmitKey(context.Background(), "t", "once", jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Dedup while queued/running...
	id2, err := svc.SubmitKey(context.Background(), "t", "once", jobs[0])
	if err != nil || id2 != id {
		t.Fatalf("dup submit: id %d err %v, want %d", id2, err, id)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	// ...and after completion.
	id3, err := svc.SubmitKey(context.Background(), "t", "once", jobs[0])
	if err != nil || id3 != id {
		t.Fatalf("post-done dup submit: id %d err %v, want %d", id3, err, id)
	}
	// Same key, different work: rejected, original job untouched.
	if _, err := svc.SubmitKey(context.Background(), "t", "once", jobs[1]); !errors.Is(err, ErrKeyConflict) {
		t.Fatalf("key conflict: got %v", err)
	}
	c := svc.Counters()
	if c.Completed != 1 || c.Deduped != 2 {
		t.Fatalf("counters: %+v", c)
	}
	st, err := svc.Status(id)
	if err != nil || st.State != "done" || st.Key != "once" {
		t.Fatalf("status: %+v err %v", st, err)
	}
	// Keyless submissions never dedup against each other.
	a, err := svc.Submit(context.Background(), "t", jobs[2])
	if err != nil {
		t.Fatal(err)
	}
	b, err := svc.Submit(context.Background(), "t", jobs[2])
	if err != nil || a == b {
		t.Fatalf("keyless submits shared id %d", a)
	}
}

// TestServiceDrainCloseUnderLoad hammers Drain and Close while submitters are
// still racing: concurrent keyed and keyless submissions (including duplicate
// keys from different goroutines), then a drain, then a close mid-traffic.
// Every accepted job must reach a terminal state, duplicate keys must resolve
// to one id, and no goroutine may leak.
func TestServiceDrainCloseUnderLoad(t *testing.T) {
	cl := caseTwo(t)
	jobs, err := workload.RandomJobs(4, 256, 101)
	if err != nil {
		t.Fatal(err)
	}
	check := leakCheck(t)
	svc, err := New(Config{
		Cluster:    cl,
		Workers:    4,
		QueueBound: 64,
		Journal:    NewMemJournal(),
		Tenants:    []Tenant{{Name: "gold", Priority: 1}, {Name: "bronze"}},
	})
	if err != nil {
		t.Fatal(err)
	}

	const submitters = 4
	var wg sync.WaitGroup
	var mu sync.Mutex
	idsByKey := make(map[string]map[int]bool)
	accepted := make(map[int]bool)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				job := jobs[(g+i)%len(jobs)]
				tenant := "bronze"
				if g%2 == 0 {
					tenant = "gold"
				}
				// Half the traffic shares keys across goroutines: the dedup
				// index is exercised under real contention.
				key := ""
				if i%2 == 0 {
					key = fmt.Sprintf("shared-%d", (g+i)%len(jobs))
				}
				id, err := svc.SubmitKey(context.Background(), tenant, key, job)
				if err != nil {
					continue // overload/closed rejections are fine under load
				}
				mu.Lock()
				accepted[id] = true
				if key != "" {
					if idsByKey[key] == nil {
						idsByKey[key] = make(map[int]bool)
					}
					idsByKey[key][id] = true
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	svc.Close()
	svc.Close() // idempotent
	check()

	for key, ids := range idsByKey {
		if len(ids) != 1 {
			t.Errorf("key %s resolved to %d distinct ids", key, len(ids))
		}
	}
	for id := range accepted {
		st, err := svc.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case "done", "failed", "shed", "canceled":
		default:
			t.Errorf("job %d left in state %s", id, st.State)
		}
	}
	if _, err := svc.SubmitKey(context.Background(), "gold", "late", jobs[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
	// The journal the run left behind must decode cleanly.
	c := svc.Counters()
	if c.JournalErrors != 0 {
		t.Fatalf("journal errors under clean load: %+v", c)
	}
}

// TestServiceDegradedMode pins graceful degradation: an injected journal
// write failure flips the service into shedding mode — new submissions reject
// with ErrDegraded, admitted work drains, nothing panics, the trace stream
// carries the transition, and the journal image left behind recovers to a
// consistent prefix.
func TestServiceDegradedMode(t *testing.T) {
	t.Run("machine", func(t *testing.T) {
		inner := NewMemJournal()
		// Appends 1-2 are job 1's submit+admit; append 3 (job 2's submit)
		// tears, degrading the service mid-admission.
		fj, err := NewFaultJournal(inner, 11, JournalFaultSpec{EveryN: 3, Kinds: []JournalFaultKind{JournalTornTail}})
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.NewRecorder()
		m := newMachine(mustNormalize(t, Config{Cluster: caseTwo(t), QueueBound: 8, Journal: fj, Trace: rec}))
		job := workload.Job{}

		js1, _, err := m.submit(0, "t", "", job, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := m.submit(1, "t", "", job, nil, 0); !errors.Is(err, ErrDegraded) {
			t.Fatalf("torn submit record: got %v", err)
		}
		if !m.degraded {
			t.Fatal("machine not degraded after journal failure")
		}
		// Degraded is sticky: later submissions shed at the door.
		if _, _, err := m.submit(2, "t", "", job, nil, 0); !errors.Is(err, ErrDegraded) {
			t.Fatalf("degraded submit: got %v", err)
		}
		// Admitted work still drains — and its lifecycle records are skipped,
		// not crashed on.
		if d, _ := m.dispatch(3); d != js1 {
			t.Fatal("queued job not dispatchable while degraded")
		}
		m.complete(3, js1, &workload.JobResult{Exec: &engine.Result{}})
		if js1.state != StateDone {
			t.Fatalf("job 1 state %s", js1.state)
		}
		c := m.counters
		if c.JournalErrors != 1 || c.RejectedDegraded != 1 || c.Admitted != 1 {
			t.Fatalf("counters: %+v", c)
		}
		degradedEvents := 0
		for _, e := range rec.Events {
			if e.Kind == trace.KindDegraded {
				degradedEvents++
			}
		}
		if degradedEvents != 1 {
			t.Fatalf("%d degraded trace events, want 1", degradedEvents)
		}
		// The torn image recovers to the intact prefix: job 1 fully admitted.
		recov := RecoverBytes(inner.Bytes())
		if recov.Err == nil || len(recov.Records) != 2 {
			t.Fatalf("recovery: %d records, err %v", len(recov.Records), recov.Err)
		}
	})

	t.Run("service", func(t *testing.T) {
		cl := caseTwo(t)
		jobs, err := workload.RandomJobs(2, 256, 111)
		if err != nil {
			t.Fatal(err)
		}
		fj, err := NewFaultJournal(NewMemJournal(), 13, JournalFaultSpec{EveryN: 1, Kinds: []JournalFaultKind{JournalSyncError}})
		if err != nil {
			t.Fatal(err)
		}
		check := leakCheck(t)
		svc, err := New(Config{Cluster: cl, Workers: 2, Journal: fj})
		if err != nil {
			t.Fatal(err)
		}
		defer check()
		defer svc.Close()

		if _, err := svc.Submit(context.Background(), "t", jobs[0]); !errors.Is(err, ErrDegraded) {
			t.Fatalf("first submit with failing journal: %v", err)
		}
		deg, derr := svc.Degraded()
		if !deg || derr == nil {
			t.Fatalf("Degraded() = %v, %v", deg, derr)
		}
		if _, err := svc.Submit(context.Background(), "t", jobs[1]); !errors.Is(err, ErrDegraded) {
			t.Fatalf("second submit: %v", err)
		}
		c := svc.Counters()
		if c.RejectedDegraded != 1 || c.JournalErrors != 1 {
			t.Fatalf("counters: %+v", c)
		}
	})
}

// TestServiceRecoverUnresolvable pins the loud-failure path for recovered
// in-flight work whose workload cannot be rebuilt: the job fails (visibly,
// with a journaled fail record) instead of haunting the queue.
func TestServiceRecoverUnresolvable(t *testing.T) {
	img := EncodeJournal([]Record{
		{Kind: RecordSubmit, Tenant: "t", App: "ghost-app", Graph: "ghost-graph", Key: "k1"},
		{Kind: RecordAdmit, ID: 1},
	})
	j, rec := NewMemJournalFrom(img)
	m := newMachine(mustNormalize(t, Config{Cluster: caseTwo(t), Journal: j}))
	m.restore(rec.Records, func(app, graphName string, seed uint64) (workload.Job, error) {
		return workload.Job{}, fmt.Errorf("no such graph")
	})
	js := m.jobs[1]
	if js == nil || js.state != StateFailed {
		t.Fatalf("unresolvable job: %+v", js)
	}
	if m.counters.RecoveredRequeued != 0 || m.counters.Failed != 1 {
		t.Fatalf("counters: %+v", m.counters)
	}
	// The fail was journaled, so the NEXT recovery agrees without a resolver.
	recs, _, err := DecodeJournal(j.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	last := recs[len(recs)-1]
	if last.Kind != RecordFail || last.ID != 1 {
		t.Fatalf("last record %+v, want fail for job 1", last)
	}
	m2 := newMachine(mustNormalize(t, Config{Cluster: caseTwo(t)}))
	m2.restore(recs, nil)
	if js2 := m2.jobs[1]; js2 == nil || js2.state != StateFailed {
		t.Fatalf("second recovery: %+v", js2)
	}

	// A submit without its admit record was never acknowledged: dropped.
	img2 := EncodeJournal([]Record{
		{Kind: RecordSubmit, Tenant: "t", App: "a", Graph: "g", Key: "k2"},
	})
	m3 := newMachine(mustNormalize(t, Config{Cluster: caseTwo(t)}))
	_, rec3 := NewMemJournalFrom(img2)
	m3.restore(rec3.Records, nil)
	if len(m3.jobs) != 0 || m3.counters.Admitted != 0 {
		t.Fatalf("unacknowledged submit admitted: %d jobs", len(m3.jobs))
	}
}
