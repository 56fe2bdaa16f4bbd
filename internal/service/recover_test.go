package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"reflect"
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
// service from the surviving prefix, and idempotently resubmit every job the
// service has not pruned. The recovered table holds only the jobs it had, in
// the states and with the charges they had; every resubmitted job ends done
// with its baseline charges, every acknowledged job keeps its id and dedups,
// and tenant budgets carry no double charge at any offset. The whole case
// never compacts, so every job is resubmitted. The compacted case serves its load
// through a window of R = 3, so its journal has compacted four times and
// opens with a snapshot that holds an unfinished job; its cuts fall inside
// the snapshot and inside the tail after it.
func TestServiceKillRecover(t *testing.T) {
	t.Run("whole", func(t *testing.T) { killRecover(t, 32, 2, 8, 8, 0) })
	t.Run("compacted", func(t *testing.T) { killRecover(t, 2, 1, 17, 2, 4) })
}

// killRecover runs n keyed jobs, burst at a time, through a service with the
// given queue bound and workers whose journal compacts compactions times,
// then crashes and recovers it at seeded cuts.
func killRecover(t *testing.T, queue, workers, n, burst int, compactions uint64) {
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
			Workers:    workers,
			QueueBound: queue,
			Seed:       7,
		}
	}
	keyOf := func(i int) string { return fmt.Sprintf("req-%d", i) }
	tenantOf := func(i int) string { return tenants[i%len(tenants)].Name }
	jobOf := func(i int) workload.Job { return jobs[i%len(jobs)] }
	// runKeyed submits jobs idx, burst at a time, waits for each burst and
	// returns each job's id and final status.
	runKeyed := func(t *testing.T, svc *Service, idx []int) (map[int]int, map[int]JobStatus) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		ids, final := make(map[int]int), make(map[int]JobStatus)
		for lo := 0; lo < len(idx); lo += burst {
			chunk := idx[lo:min(lo+burst, len(idx))]
			for _, i := range chunk {
				id, err := svc.SubmitKey(ctx, tenantOf(i), keyOf(i), jobOf(i))
				if err != nil {
					t.Fatalf("job %d rejected: %v", i, err)
				}
				ids[i] = id
			}
			for _, i := range chunk {
				st, err := svc.Wait(ctx, ids[i])
				if err != nil {
					t.Fatal(err)
				}
				final[i] = st
			}
		}
		return ids, final
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}

	// Baseline: run everything to completion, keep the journal image.
	journal := NewMemJournal()
	cfg := baseCfg()
	cfg.Journal = journal
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	baseID, baseStatus := runKeyed(t, svc, all)
	keyByID := make(map[int]int)
	for i, st := range baseStatus {
		if st.State != "done" {
			t.Fatalf("baseline job %d state %s: %s", i, st.State, st.Error)
		}
		keyByID[baseID[i]] = i
	}
	baseSpend := make(map[string][2]float64)
	for _, u := range svc.Usage() {
		baseSpend[u.Tenant.Name] = [2]float64{u.SpentSeconds, u.SpentJoules}
	}
	if c := svc.Counters().JournalCompactions; c != compactions {
		t.Fatalf("baseline compacted %d times, want %d", c, compactions)
	}
	checkServiceLaws(t, svc, compactions == 0)
	svc.Close()
	img := journal.Bytes()

	// What the full image says the client knew at the snapshot: every job
	// with an id up to the base had been submitted, and all but the ones
	// the snapshot holds unfinished had finished.
	full, _, err := DecodeJournal(img)
	if err != nil {
		t.Fatal(err)
	}
	var base uint64
	snapEnd, tenantsEnd := len(journalMagic), len(journalMagic)
	liveAtSnap := make(map[int]bool)
	for i, r := range full {
		if r.Kind != RecordSnapshot && r.Kind != RecordTenant && r.Kind != RecordJob {
			break
		}
		snapEnd = len(EncodeJournal(full[:i+1]))
		switch r.Kind {
		case RecordSnapshot:
			base = r.Seed
		case RecordTenant:
			tenantsEnd = snapEnd
		case RecordJob:
			if r.State == StateQueued || r.State == StateRunning {
				liveAtSnap[r.ID] = true
			}
		}
	}
	if (compactions > 0) != (base > 0) || (compactions > 0) != (len(liveAtSnap) > 0) {
		t.Fatalf("%d compactions, snapshot base %d holding %d unfinished jobs", compactions, base, len(liveAtSnap))
	}

	// Crash offsets: both edges plus seeded cuts everywhere in between —
	// mid-magic, mid-frame, between a submit and its admit, between a
	// complete and its budget charge; in a compacted image, inside the
	// snapshot and inside its tail. The invariants must hold at ALL of them.
	offsets := []int{0, len(journalMagic) / 2, len(img) - 1, len(img)}
	cutIn := func(lo, hi int, salt uint64, count int) {
		for i := uint64(0); i < uint64(count); i++ {
			offsets = append(offsets, lo+int(rng.Hash3(81, salt, i)%uint64(hi-lo)))
		}
	}
	if base == 0 {
		cutIn(0, len(img), 0x6b696c6c, 5)
	} else {
		cutIn(len(journalMagic), snapEnd, 0x736e6170, 4)
		cutIn(snapEnd, len(img), 0x7461696c, 4)
	}

	for _, cut := range offsets {
		t.Run(fmt.Sprintf("offset-%d", cut), func(t *testing.T) {
			check := leakCheck(t)
			j2, rec := NewMemJournalFrom(img[:cut])
			// What the surviving prefix acknowledged: submits whose admit
			// record also made it, and the jobs its snapshot holds. Those ids
			// must be stable across recovery.
			acked := make(map[string]int)
			ackedID := make(map[int]bool)
			subKeys := make(map[int]string)
			for _, r := range rec.Records {
				switch r.Kind {
				case RecordSubmit:
					subKeys[int(r.Seq)] = r.Key
				case RecordAdmit:
					if k, ok := subKeys[r.ID]; ok {
						acked[k], ackedID[r.ID] = r.ID, true
					}
				case RecordJob:
					acked[r.Key], ackedID[r.ID] = r.ID, true
				}
			}

			cfg := baseCfg()
			cfg.Resolve = resolve
			// The recovered table, before any worker runs: every job it holds
			// is the job it was, under its id, queued or done with the
			// charges it had.
			m := newMachine(mustNormalize(t, cfg))
			m.restore(rec.Records, resolve)
			checkLaws(t, machineReport(m), base == 0)
			for _, st := range m.list("", 0, 0) {
				i, ok := keyByID[st.ID]
				if want := baseStatus[i]; !ok || st.Key != keyOf(i) || st.Tenant != want.Tenant {
					t.Fatalf("cut %d: recovered job %+v is not the baseline's job %d", cut, st, st.ID)
				}
				if st.State != "queued" && (st.State != "done" ||
					st.ExecSeconds != baseStatus[i].ExecSeconds || st.EnergyJoules != baseStatus[i].EnergyJoules) {
					t.Fatalf("cut %d: recovered job %+v, baseline %+v", cut, st, baseStatus[i])
				}
			}

			cfg.Journal = j2
			cfg.Recovery = rec
			svc2, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer check()
			defer svc2.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			if err := svc2.Drain(ctx); err != nil {
				t.Fatal(err)
			}

			// The client's crash protocol: resubmit, with the same keys, every
			// job except the ones the service has pruned — the acknowledged
			// ones first, which dedup, then the lost ones, which re-admit.
			// A pruned job finished at least R completions ago and is no
			// longer listed: it was acknowledged and is gone, or its id is
			// at most the snapshot's base and the snapshot did not hold it
			// unfinished. Its key is free, so resubmitting it would run it
			// twice. Without compaction nothing is pruned and every job is
			// resubmitted.
			listed := make(map[int]bool)
			for _, st := range svc2.List("", 0, 0) {
				listed[st.ID] = true
			}
			var ackedIdx, lostIdx []int
			for i := range all {
				id := baseID[i]
				if !listed[id] && (ackedID[id] || uint64(id) <= base && !liveAtSnap[id]) {
					continue
				}
				if _, ok := acked[keyOf(i)]; ok {
					ackedIdx = append(ackedIdx, i)
				} else {
					lostIdx = append(lostIdx, i)
				}
			}
			if base == 0 && len(ackedIdx)+len(lostIdx) != n {
				t.Fatalf("cut %d: %d of %d jobs resubmitted from an uncompacted journal", cut, len(ackedIdx)+len(lostIdx), n)
			}
			ids, final := runKeyed(t, svc2, ackedIdx)
			lostIDs, lostFinal := runKeyed(t, svc2, lostIdx)
			maps.Copy(ids, lostIDs)
			maps.Copy(final, lostFinal)
			for i, st := range final {
				k, want := keyOf(i), baseStatus[i]
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
				if id, ok := acked[k]; ok && ids[i] != id {
					t.Fatalf("cut %d job %s: acknowledged id %d changed to %d", cut, k, id, ids[i])
				}
			}
			// Tenant budgets: recovered charges plus re-executed charges must
			// equal the baseline spend exactly once per job — a double charge
			// (complete record AND derived charge AND live re-charge) would
			// show up here at the offsets that split record pairs. A cut
			// through a snapshot's tenant frames, which a whole-file rename
			// never leaves, loses spend; there no tenant may be over-charged.
			for _, u := range svc2.Usage() {
				want, ok := baseSpend[u.Tenant.Name]
				if !ok {
					continue
				}
				exact := floatsClose(u.SpentSeconds, want[0]) && floatsClose(u.SpentJoules, want[1])
				under := u.SpentSeconds <= want[0]*(1+1e-9) && u.SpentJoules <= want[1]*(1+1e-9)
				if !exact && (cut >= tenantsEnd || !under) {
					t.Fatalf("cut %d tenant %s: spend %g/%g, want %g/%g",
						cut, u.Tenant.Name, u.SpentSeconds, u.SpentJoules, want[0], want[1])
				}
			}
			checkServiceLaws(t, svc2, false)
			c := svc2.Counters()
			if got := int(c.Deduped); got != len(ackedIdx) {
				t.Fatalf("cut %d: deduped %d, want %d (one per acknowledged job resubmitted)", cut, got, len(ackedIdx))
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
	// The conflict counts as a rejection of its own, so every submission
	// has one verdict.
	if err := svc.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if c := svc.Counters(); c.RejectedKeyConflict != 1 {
		t.Fatalf("counters: %+v", c)
	}
	checkServiceLaws(t, svc, true)
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
		m.complete(3, js1, workload.JobResult{Exec: &engine.Result{}})
		if js1.state != StateDone {
			t.Fatalf("job 1 state %s", js1.state)
		}
		c := m.counters
		if c.JournalErrors != 1 || c.RejectedDegraded != 2 || c.Admitted != 1 {
			t.Fatalf("counters: %+v", c)
		}
		checkLaws(t, machineReport(m), true)
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
		if c.RejectedDegraded != 2 || c.JournalErrors != 1 {
			t.Fatalf("counters: %+v", c)
		}
		checkServiceLaws(t, svc, true)
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

// TestServiceRestoreFailedWithoutError restores a snapshot whose failed job
// carries no error text, which the journal decodes: the job is failed with
// an empty error, and the restore does not panic.
func TestServiceRestoreFailedWithoutError(t *testing.T) {
	recs, _, err := DecodeJournal(EncodeJournal([]Record{
		{Kind: RecordSnapshot, Seed: 1},
		{Kind: RecordJob, ID: 1, State: StateFailed, Tenant: "t"},
	}))
	if err != nil {
		t.Fatal(err)
	}
	m := newMachine(mustNormalize(t, Config{Cluster: caseTwo(t)}))
	m.restore(recs, nil)
	if st := m.list("", 0, 0); len(st) != 1 || st[0].State != "failed" || st[0].Error != "" || m.counters.Failed != 1 {
		t.Fatalf("restored %+v, counters %+v", st, m.counters)
	}
}

// TestServiceRecoverBreaker pins breaker recovery: a restart restores each
// tenant's circuit breaker from the journal instead of closing it. A tail of
// threshold failures restores an open breaker that rejects for a full
// cooldown on the new clock and then admits a half-open probe; a completion
// after the failures restores a closed one. A snapshot restores the same
// breaker, failure count and jobs as the records it replaces, and a service
// with the breaker disabled restores none of it.
func TestServiceRecoverBreaker(t *testing.T) {
	cfg := Config{Cluster: caseTwo(t), BreakerThreshold: 2, BreakerCooldown: 5, QueueBound: 10}
	live := cfg
	journal := NewMemJournal()
	live.Journal = journal
	m := newMachine(mustNormalize(t, live))
	run := func(now float64, ok bool) {
		t.Helper()
		js, _, err := m.submit(now, "t", "", workload.Job{}, nil, 0)
		if err != nil {
			t.Fatalf("submit at %g: %v", now, err)
		}
		if d, _ := m.dispatch(now); d != js {
			t.Fatalf("dispatch at %g returned %v", now, d)
		}
		if ok {
			m.complete(now, js, workload.JobResult{Exec: &engine.Result{SimSeconds: 1, EnergyJoules: 2}})
		} else {
			m.fail(now, js, errors.New("boom"), false)
		}
	}
	restore := func(cfg Config, recs []Record) *machine {
		t.Helper()
		r := newMachine(mustNormalize(t, cfg))
		r.restore(recs, nil)
		return r
	}
	// snapshot is the image a compaction of m would write, holding every job.
	snapshot := func() []Record {
		t.Helper()
		recs, _, err := DecodeJournal(journal.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		img := m.appendSnapshot(appendSnapshotHead(nil, lastSeq(recs)), 0)
		snap, _, err := DecodeJournal(img)
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	// check restores the journal as it stands and as a snapshot, and
	// requires the breaker state and consecutive failures given. The
	// restore from records must also agree with the live machine on jobs,
	// tenants and job counters, and count the closed→open trips given: it
	// has no half-open state, so it replays a failed probe as one more
	// failure of an open breaker, not as a trip.
	check := func(name string, breaker, fails int, trips uint64) *machine {
		t.Helper()
		recs, _, err := DecodeJournal(journal.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		fromRecs, fromSnap := restore(cfg, recs), restore(cfg, snapshot())
		if a, b := fromRecs.list("", 0, 0), m.list("", 0, 0); !sameJobs(a, b) {
			t.Fatalf("%s: records restore jobs\n%+v\nlive\n%+v", name, a, b)
		}
		if a, b := fromRecs.usage(), m.usage(); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: records restore tenants %+v, live %+v", name, a, b)
		}
		counts := func(c Counters) [5]uint64 {
			return [5]uint64{c.Submitted, c.Admitted, c.Completed, c.Failed, c.Retries}
		}
		if a, b := counts(fromRecs.counters), counts(m.counters); a != b {
			t.Fatalf("%s: records restore submitted, admitted, completed, failed, retries %v, live %v", name, a, b)
		}
		if got := fromRecs.counters.BreakerTrips; got != trips {
			t.Fatalf("%s: records restore %d breaker trips, want %d", name, got, trips)
		}
		for _, r := range []*machine{fromRecs, fromSnap} {
			if ts := r.tenant("t"); ts.breaker != breaker || ts.consecFails != fails || ts.openedAt != 0 {
				t.Fatalf("%s: restored breaker %d after %d failures (opened at %g), want %d after %d",
					name, ts.breaker, ts.consecFails, ts.openedAt, breaker, fails)
			}
		}
		if a, b := fromRecs.list("", 0, 0), fromSnap.list("", 0, 0); !sameJobs(a, b) {
			t.Fatalf("%s: snapshot restores jobs\n%+v\nrecords restore\n%+v", name, b, a)
		}
		if a, b := fromRecs.usage(), fromSnap.usage(); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: snapshot restores tenants %+v, records %+v", name, b, a)
		}
		off := cfg
		off.BreakerThreshold = 0
		for _, r := range []*machine{restore(off, recs), restore(off, snapshot())} {
			if ts := r.tenant("t"); ts.breaker != breakerClosed || ts.consecFails != 0 {
				t.Fatalf("%s: breaker disabled, yet restored state %d after %d failures", name, ts.breaker, ts.consecFails)
			}
		}
		return fromRecs
	}

	run(0, true)
	run(1, false)
	check("one failure", breakerClosed, 1, 0)

	run(2, false) // the threshold: trips
	r := check("tripped", breakerOpen, 2, 1)
	for _, now := range []float64{0, 4.9} {
		if _, _, err := r.submit(now, "t", "", workload.Job{}, nil, 0); !errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("restored open breaker admitted at %g: %v", now, err)
		}
	}
	if _, _, err := r.submit(5, "t", "", workload.Job{}, nil, 0); err != nil {
		t.Fatalf("restored breaker rejected its half-open probe after the cooldown: %v", err)
	}
	if ts := r.tenant("t"); ts.breaker != breakerHalfOpen {
		t.Fatalf("restored breaker state %d after its cooldown, want half-open", ts.breaker)
	}

	run(8, false) // a failed probe re-opens
	check("failed probe", breakerOpen, 3, 1)

	run(14, true) // a successful probe closes
	r = check("closed", breakerClosed, 0, 1)
	if _, _, err := r.submit(0, "t", "", workload.Job{}, nil, 0); err != nil {
		t.Fatalf("restored closed breaker rejected: %v", err)
	}
}

// compactingFileService runs a journaling service with a window of R = 3 on a
// FileJournal at path, with onStep hooked into its compactions. It returns
// the service and a submit function that runs job i (key req-i, tenant gold
// or bronze) to its end, closed loop, so no job is in flight between calls.
func compactingFileService(t *testing.T, path string, onStep func(svc *Service, step string) error) (*Service, func(i int)) {
	t.Helper()
	cl := caseTwo(t)
	jobs, err := workload.RandomJobs(4, 256, 131)
	if err != nil {
		t.Fatal(err)
	}
	fj, _, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fj.Close() })
	svc, err := New(Config{Cluster: cl, QueueBound: 2, Workers: 1, Journal: fj, Resolve: jobCatalog(jobs),
		Tenants: []Tenant{{Name: "gold", Priority: 1}, {Name: "bronze"}}})
	if err != nil {
		t.Fatal(err)
	}
	fj.store.(*fileStore).onStep = func(step string) error { return onStep(svc, step) }
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return svc, func(i int) {
		t.Helper()
		id, err := svc.SubmitKey(ctx, []string{"gold", "bronze"}[i%2], fmt.Sprintf("req-%d", i), jobs[i%len(jobs)])
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if st, err := svc.Wait(ctx, id); err != nil || st.State != "done" {
			t.Fatalf("job %d: %+v %v", i, st, err)
		}
	}
}

// sameJobs compares two job tables, ignoring queue waits (recovery does not
// journal them).
func sameJobs(a, b []JobStatus) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		x.QueueWaitSeconds, y.QueueWaitSeconds = 0, 0
		if x != y {
			return false
		}
	}
	return true
}

// TestServiceFileJournalCompactionCrash crashes a journaling service at each
// step of its second compaction — at seeded offsets of the snapshot's
// temporary file, after its fsync, and after its rename — by capturing the
// files such a crash would leave. Every capture must reopen without the
// temporary file and recover either the state before the compaction or the
// state after it, with bit-identical tenant spend; the restarted service must
// list the post-compaction jobs under their ids, and resubmitting every
// listed job's key must dedup without charging anyone again.
func TestServiceFileJournalCompactionCrash(t *testing.T) {
	type capture struct {
		name           string
		journal, tmp   []byte
		hasTmp, isPost bool
	}
	var (
		captures []capture
		pre      []JobStatus
		spend    []TenantUsage
	)
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.journal")
	svc, run := compactingFileService(t, path, func(svc *Service, step string) error {
		if svc.m.counters.JournalCompactions != 1 {
			return nil
		}
		old, err := os.ReadFile(path)
		if err != nil {
			t.Error(err)
		}
		tmp, _ := os.ReadFile(path + compactSuffix)
		switch step {
		case "written":
			pre, spend = svc.m.list("", 0, 0), svc.m.usage()
			for i := uint64(0); i < 4; i++ {
				cut := int(rng.Hash3(131, 0x636d7074, i) % uint64(len(tmp)))
				captures = append(captures, capture{fmt.Sprintf("written-%d", cut), old, tmp[:cut], true, false})
			}
		case "synced":
			captures = append(captures, capture{"synced", old, tmp, true, false})
		case "renamed":
			captures = append(captures, capture{"renamed", old, nil, false, true})
		}
		return nil
	})
	// Compactions after the 6th and 9th job; stop right after the second.
	for i := 0; i < 9; i++ {
		run(i)
	}
	if c := svc.Counters(); c.JournalCompactions != 2 || len(captures) != 6 {
		t.Fatalf("%d compactions, %d captures", c.JournalCompactions, len(captures))
	}
	post := svc.List("", 0, 0)
	svc.Close()
	if len(pre) != 6 || len(post) != 3 {
		t.Fatalf("%d jobs before the second compaction, %d after; want 6 and 3", len(pre), len(post))
	}

	jobs, err := workload.RandomJobs(4, 256, 131)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range captures {
		t.Run(c.name, func(t *testing.T) {
			cpath := filepath.Join(t.TempDir(), "jobs.journal")
			if err := os.WriteFile(cpath, c.journal, 0o644); err != nil {
				t.Fatal(err)
			}
			if c.hasTmp {
				if err := os.WriteFile(cpath+compactSuffix, c.tmp, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			fj, rec, err := OpenFileJournal(cpath)
			if err != nil {
				t.Fatal(err)
			}
			defer fj.Close()
			if _, err := os.Stat(cpath + compactSuffix); !os.IsNotExist(err) {
				t.Fatalf("temporary snapshot survived the reopen: %v", err)
			}
			if rec.Err != nil {
				t.Fatalf("recovery: %v", rec.Err)
			}
			cfg := Config{Cluster: caseTwo(t), QueueBound: 2, Workers: 1, Journal: fj, Recovery: rec,
				Resolve: jobCatalog(jobs), Tenants: []Tenant{{Name: "gold", Priority: 1}, {Name: "bronze"}}}

			// The journal itself holds the state before or after compacting.
			m := newMachine(mustNormalize(t, cfg))
			m.restore(rec.Records, cfg.Resolve)
			want := pre
			if c.isPost {
				want = post
			}
			if got := m.list("", 0, 0); !sameJobs(got, want) {
				t.Fatalf("recovered jobs:\n%+v\nwant\n%+v", got, want)
			}
			if got := m.usage(); !reflect.DeepEqual(got, spend) {
				t.Fatalf("recovered spend %+v, want %+v", got, spend)
			}

			check := leakCheck(t)
			svc2, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer check()
			defer svc2.Close()
			if got := svc2.List("", 0, 0); !sameJobs(got, post) {
				t.Fatalf("restarted service lists\n%+v\nwant\n%+v", got, post)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			for _, st := range post {
				var i int
				fmt.Sscanf(st.Key, "req-%d", &i)
				if id, err := svc2.SubmitKey(ctx, st.Tenant, st.Key, jobs[i%len(jobs)]); err != nil || id != st.ID {
					t.Fatalf("resubmitting %s: id %d, err %v; want %d", st.Key, id, err, st.ID)
				}
			}
			if err := svc2.Drain(ctx); err != nil {
				t.Fatal(err)
			}
			if got := svc2.Usage(); !reflect.DeepEqual(got, spend) {
				t.Fatalf("spend after resubmission %+v, want %+v", got, spend)
			}
			if c := svc2.Counters(); c.Deduped != uint64(len(post)) || c.Admitted != uint64(len(want)) {
				t.Fatalf("counters after resubmission: %+v", c)
			}
		})
	}
}

// TestServiceCompactionFailure pins the failed-compaction contract: a
// snapshot that cannot be made durable leaves the old journal intact and the
// job table unpruned, removes its temporary file, and degrades the service
// like any failed journal write.
func TestServiceCompactionFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	var before []byte
	svc, run := compactingFileService(t, path, func(_ *Service, step string) error {
		if step != "synced" {
			return nil
		}
		var err error
		before, err = os.ReadFile(path)
		if err != nil {
			t.Error(err)
		}
		return errors.New("injected snapshot fsync failure")
	})
	defer svc.Close()
	for i := 0; i < 6; i++ {
		run(i)
	}
	if deg, err := svc.Degraded(); !deg || err == nil {
		t.Fatalf("Degraded() = %v, %v after a failed compaction", deg, err)
	}
	if c := svc.Counters(); c.JournalCompactions != 0 || c.JournalErrors != 1 || c.TombstonesPruned != 0 {
		t.Fatalf("counters: %+v", c)
	}
	if list := svc.List("", 0, 0); len(list) != 6 {
		t.Fatalf("%d jobs listed after a failed compaction, want all 6", len(list))
	}
	if after, err := os.ReadFile(path); err != nil || before == nil || !bytes.Equal(after, before) {
		t.Fatalf("journal changed by a failed compaction (err %v)", err)
	}
	if _, err := os.Stat(path + compactSuffix); !os.IsNotExist(err) {
		t.Fatalf("failed compaction left its temporary file: %v", err)
	}
	recs, _, err := DecodeJournal(before)
	if err != nil {
		t.Fatal(err)
	}
	m := newMachine(mustNormalize(t, Config{Cluster: caseTwo(t)}))
	m.restore(recs, nil)
	if got := m.list("", 0, 0); !sameJobs(got, svc.List("", 0, 0)) {
		t.Fatalf("intact journal recovers\n%+v\nwant\n%+v", got, svc.List("", 0, 0))
	}
}
