package service

import (
	"reflect"
	"testing"

	"proxygraph/internal/engine"
	"proxygraph/internal/workload"
)

// checkLaws fails t unless rep obeys the service's counting laws:
//
//	L1  Submitted = Admitted + every rejection counter + Deduped;
//	L2  Admitted = the terminal counters + the jobs queued or running;
//	L3  each verdict in Rejections appears as often as its counter counts;
//	L4  each terminal state's jobs in Jobs number its counter, less the
//	    tombstones compaction pruned;
//	L5  each tenant's spend is the ingress plus exec seconds, and the
//	    energy, of its done jobs in Jobs (within 1e-9 relative: the sums run
//	    in another order) — when whole says Jobs holds every job its tenants
//	    were charged for, and at least that otherwise;
//	L6  no queue wait is negative.
//
// A live service's report has no Rejections, so L3 holds there vacuously.
func checkLaws(t testing.TB, rep *ReplayReport, whole bool) {
	t.Helper()
	c := rep.Counters
	rejected := c.RejectedOverload + c.RejectedBreaker + c.RejectedBudget + c.RejectedDegraded + c.RejectedKeyConflict
	if c.Submitted != c.Admitted+rejected+c.Deduped {
		t.Fatalf("L1: submitted %d, admitted %d + rejected %d + deduped %d: %+v", c.Submitted, c.Admitted, rejected, c.Deduped, c)
	}
	var queued, running, done, failed, canceled, shedPriority, shedDeadline uint64
	type spend struct{ seconds, joules float64 }
	charged := map[string]spend{}
	for _, js := range rep.Jobs {
		switch js.State {
		case "queued":
			queued++
		case "running":
			running++
		case "done":
			done++
			s := charged[js.Tenant]
			charged[js.Tenant] = spend{s.seconds + js.IngressSeconds + js.ExecSeconds, s.joules + js.EnergyJoules}
		case "failed":
			failed++
		case "canceled":
			canceled++
		case "shed":
			if js.Error == errShedDeadline.Error() {
				shedDeadline++
			} else {
				shedPriority++
			}
		}
		if js.QueueWaitSeconds < 0 {
			t.Fatalf("L6: job %d waited %g", js.ID, js.QueueWaitSeconds)
		}
	}
	terminal := c.Completed + c.Failed + c.Canceled + c.ShedPriority + c.ShedDeadline
	if c.Admitted != terminal+queued+running {
		t.Fatalf("L2: admitted %d, terminal %d + queued %d + running %d: %+v", c.Admitted, terminal, queued, running, c)
	}
	if rep.Rejections != nil {
		verdicts := map[string]uint64{}
		for _, v := range rep.Rejections {
			verdicts[v]++
		}
		want := map[string]uint64{"overload": c.RejectedOverload, "breaker": c.RejectedBreaker,
			"budget": c.RejectedBudget, "degraded": c.RejectedDegraded}
		for v, n := range verdicts {
			if want[v] != n {
				t.Fatalf("L3: %d %q verdicts, counters say %d: %+v", n, v, want[v], c)
			}
		}
		for v, n := range want {
			if verdicts[v] != n {
				t.Fatalf("L3: counters say %d %q rejections, the report lists %d", n, v, verdicts[v])
			}
		}
	}
	pruned := uint64(0)
	for _, s := range []struct {
		state         string
		jobs, counter uint64
	}{
		{"done", done, c.Completed}, {"failed", failed, c.Failed}, {"canceled", canceled, c.Canceled},
		{"shed (priority)", shedPriority, c.ShedPriority}, {"shed (deadline)", shedDeadline, c.ShedDeadline},
	} {
		if s.jobs > s.counter {
			t.Fatalf("L4: %d %s jobs, the counter says %d: %+v", s.jobs, s.state, s.counter, c)
		}
		pruned += s.counter - s.jobs
	}
	if pruned != c.TombstonesPruned {
		t.Fatalf("L4: the counters hold %d terminal jobs the table does not, %d were pruned: %+v", pruned, c.TombstonesPruned, c)
	}
	for _, u := range rep.Tenants {
		want := charged[u.Tenant.Name]
		exact := floatsClose(u.SpentSeconds, want.seconds) && floatsClose(u.SpentJoules, want.joules)
		atLeast := u.SpentSeconds >= want.seconds*(1-1e-9) && u.SpentJoules >= want.joules*(1-1e-9)
		if whole && !exact || !atLeast {
			t.Fatalf("L5: tenant %s spent %g s / %g J, its done jobs charge %g s / %g J", u.Tenant.Name, u.SpentSeconds, u.SpentJoules, want.seconds, want.joules)
		}
	}
}

// machineReport is a machine's counters, job table and tenants as a report.
func machineReport(m *machine) *ReplayReport {
	return &ReplayReport{Counters: m.counters, Jobs: m.list("", 0, 0), Tenants: m.usage()}
}

// checkServiceLaws checks the laws on one consistent snapshot of a live
// service.
func checkServiceLaws(t testing.TB, svc *Service, whole bool) {
	t.Helper()
	svc.mu.Lock()
	rep := machineReport(svc.m)
	svc.mu.Unlock()
	checkLaws(t, rep, whole)
}

// lawScenario decodes fuzz bytes into a Replay config over a three-tenant
// service and its arrivals, drawn from jobs, plus the journal the config
// writes to (nil for none), the memory image under it and the record index a
// crash cuts that journal at. Each byte pulled past the end reads as zero.
func lawScenario(t testing.TB, cfg Config, jobs []workload.Job, data []byte) (Config, []Arrival, *MemJournal, int) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	// Jobs' makespans at scale 1024 run from 0.1 to 10 ms of simulated time.
	const unit = 0.0005
	cfg.Workers = 1 + next()%3
	cfg.QueueBound = 1 + next()%6
	cfg.TenantQueueBound = next() % (cfg.QueueBound + 1)
	cfg.MaxRetries = next() % 3
	cfg.BaseBackoff, cfg.MaxBackoff = unit, 8*unit
	cfg.BreakerThreshold = next() % 4
	cfg.BreakerCooldown = unit * float64(1+next()%16)
	cfg.ChargeIngress = next()%2 == 1
	if n := next(); n%2 == 1 {
		cfg.Flaky = &Flaky{Seed: uint64(n), MaxFailures: n % 4}
	}
	for _, name := range []string{"gold", "silver", "bronze"} {
		tn := Tenant{Name: name, Priority: next() % 3}
		switch n := next(); n % 4 {
		case 1:
			tn.Budget.SimSeconds = unit * float64(1+n%32)
		}
		cfg.Tenants = append(cfg.Tenants, tn)
	}
	var image *MemJournal
	switch mode := next() % 3; mode {
	case 1:
		image = NewMemJournal()
		cfg.Journal = image
	case 2:
		image = NewMemJournal()
		spec := JournalFaultSpec{EveryN: 1 + next()%12}
		if k := next() % 5; k < numJournalFaultKinds {
			spec.Kinds = []JournalFaultKind{JournalFaultKind(k)}
		}
		fj, err := NewFaultJournal(image, uint64(next()), spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Journal = fj
	}
	cut := next()
	var arrivals []Arrival
	at := 0.0
	for len(data) > 0 && len(arrivals) < 24 {
		at += unit * float64(next()%8)
		a := Arrival{AtSeconds: at, Tenant: cfg.Tenants[next()%3].Name, Job: jobs[next()%len(jobs)]}
		if d := next(); d%4 == 1 {
			a.DeadlineSeconds = unit * float64(1+d%16)
		}
		arrivals = append(arrivals, a)
	}
	return cfg, arrivals, image, cut
}

// FuzzReplayLaws replays random scenarios — queue and tenant bounds,
// retries, the breaker, budgets, deadlines, transient faults, one to three
// workers and a journal that may fail — and checks the counting laws on
// every report. With a journal, a crash at a random record of the image it
// left is restored into a fresh machine, which must obey the laws too.
func FuzzReplayLaws(f *testing.F) {
	f.Add([]byte{})
	// Two workers, queue bound 2, no retry, a breaker that trips at the
	// first failure, transient faults and charged ingress; gold outranks
	// silver, whose budget is small, and bronze; sixteen arrivals, five with
	// deadlines.
	f.Add([]byte{1, 1, 0, 0, 1, 3, 1, 5, 2, 0, 1, 1, 0, 0, 0, 0,
		0, 2, 0, 0, 0, 0, 1, 1, 0, 1, 2, 0, 1, 0, 3, 0,
		0, 2, 4, 1, 1, 1, 5, 0, 0, 0, 0, 9, 2, 2, 1, 0,
		0, 0, 2, 0, 1, 1, 3, 1, 0, 2, 4, 0, 3, 0, 5, 0,
		0, 0, 0, 0, 0, 1, 1, 0, 1, 2, 2, 1, 0, 0, 3, 0})
	// One worker behind a queue of four: the gold jobs run first, silver
	// sheds a bronze job and another bronze job misses its deadline.
	f.Add([]byte{0, 3, 0, 0, 0, 0, 0, 0, 2, 0, 1, 0, 0, 0, 0, 0,
		0, 0, 0, 0, 0, 2, 1, 1, 0, 0, 2, 0, 0, 2, 3, 1, 0, 1, 4, 0, 0, 2, 5, 1})
	// A memory journal cut after its third record: job 2's submit without its
	// admit.
	f.Add([]byte{0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 3, 0, 0, 0, 0, 0, 1, 1, 0, 0, 2, 2, 0})
	// A fault journal whose third append, job 2's submit, is a short write.
	f.Add([]byte{0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 1, 0, 9, 0, 0, 0, 0, 0, 1, 1, 0, 0, 2, 2, 0})
	// Every kind of fault every fifth append, under the first seed's
	// arrivals on three workers with two retries.
	f.Add([]byte{2, 0, 0, 2, 1, 2, 0, 7, 2, 0, 1, 0, 0, 0, 2, 4, 4, 5, 40,
		0, 2, 0, 0, 0, 0, 1, 1, 0, 1, 2, 0, 1, 0, 3, 0,
		0, 2, 4, 1, 1, 1, 5, 0, 0, 0, 0, 9, 2, 2, 1, 0,
		0, 0, 2, 0, 1, 1, 3, 1, 0, 2, 4, 0, 3, 0, 5, 0,
		0, 0, 0, 0, 0, 1, 1, 0, 1, 2, 2, 1, 0, 0, 3, 0})

	cl := caseTwo(f)
	jobs, err := workload.RandomJobs(6, 1024, 41)
	if err != nil {
		f.Fatal(err)
	}
	resolve := jobCatalog(jobs)
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, arrivals, image, cut := lawScenario(t, Config{Cluster: cl, Seed: 5}, jobs, data)
		rep, err := Replay(cfg, arrivals)
		if err != nil {
			t.Fatal(err)
		}
		checkLaws(t, rep, true)
		if image == nil {
			return
		}
		recs := RecoverBytes(image.Bytes()).Records
		cfg.Journal = nil
		m := newMachine(mustNormalize(t, cfg))
		m.restore(recs[:cut%(len(recs)+1)], resolve)
		checkLaws(t, machineReport(m), true)
	})
}

// TestServiceLawsAfterCompactedRecovery recovers a journal whose snapshot
// holds shed jobs, one per reason, and done ones: a bronze job is shed
// whenever a gold one finds the queue full, some bronze jobs miss their
// deadline, and compaction drops the oldest. The recovered machine counts
// every job it holds under its state, shed ones under their reason, and each
// submission it admits, so it obeys the laws as the crashed one did.
func TestServiceLawsAfterCompactedRecovery(t *testing.T) {
	journal := NewMemJournal()
	cfg := mustNormalize(t, Config{
		Cluster: caseTwo(t), QueueBound: 1, Workers: 1, Journal: journal,
		Tenants: []Tenant{{Name: "gold", Priority: 1}, {Name: "bronze"}},
	})
	m := newMachine(cfg)
	now := 0.0
	submit := func(tenant string, deadline float64) {
		t.Helper()
		now++
		if _, _, err := m.submit(now, tenant, "", workload.Job{}, nil, deadline); err != nil {
			t.Fatal(err)
		}
		m.compact()
	}
	run := func() {
		t.Helper()
		now++
		js, _ := m.dispatch(now)
		if js == nil {
			t.Fatal("nothing to dispatch")
		}
		m.compact()
		m.complete(now, js, workload.JobResult{Exec: &engine.Result{SimSeconds: 1, EnergyJoules: 2}, IngressSeconds: 0.5})
		m.compact()
	}
	expire := func() {
		t.Helper()
		now += 10
		if js, _ := m.dispatch(now); js != nil {
			t.Fatalf("dispatched job %d past its deadline", js.id)
		}
		m.compact()
	}
	// Three rounds of a bronze job shed for a gold one that runs, then three
	// bronze jobs that miss their deadlines and a fourth shed for gold: the
	// third compaction's snapshot holds the last two shed jobs, the two done
	// jobs whose results are in the window, and the gold job queued.
	for range 3 {
		submit("bronze", 0)
		submit("gold", 0)
		run()
	}
	for range 3 {
		submit("bronze", now+2)
		expire()
	}
	submit("bronze", 0)
	submit("gold", 0)
	if m.counters.JournalCompactions != 3 {
		t.Fatalf("%d compactions, want 3", m.counters.JournalCompactions)
	}
	checkLaws(t, machineReport(m), false)

	rec := RecoverBytes(journal.Bytes())
	if rec.Err != nil {
		t.Fatal(rec.Err)
	}
	snapshotShed := map[string]int{}
	for _, r := range rec.Records {
		if r.Kind == RecordJob && r.State == StateShed {
			snapshotShed[r.Error]++
		}
	}
	if snapshotShed[errShedPriority.Error()] == 0 || snapshotShed[errShedDeadline.Error()] == 0 {
		t.Fatalf("the snapshot holds shed jobs %v, want both reasons", snapshotShed)
	}
	cfg.Journal = nil
	r := newMachine(cfg)
	r.restore(rec.Records, func(string, string, uint64) (workload.Job, error) { return workload.Job{}, nil })
	checkLaws(t, machineReport(r), false)
	c := r.counters
	if c.ShedPriority != uint64(snapshotShed[errShedPriority.Error()]) || c.ShedDeadline != uint64(snapshotShed[errShedDeadline.Error()]) {
		t.Fatalf("recovered counters %+v, the snapshot holds shed jobs %v", c, snapshotShed)
	}
	// The recovered table is the crashed one's, but for queue waits, which
	// the journal does not keep.
	want, got := m.list("", 0, 0), r.list("", 0, 0)
	for i := range min(len(got), len(want)) {
		got[i].QueueWaitSeconds = want[i].QueueWaitSeconds
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered job table:\n%+v\nwant\n%+v", got, want)
	}
}
