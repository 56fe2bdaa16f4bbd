package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"proxygraph/internal/apps"
	"proxygraph/internal/cluster"
	"proxygraph/internal/core"
	"proxygraph/internal/engine"
	"proxygraph/internal/fault"
	"proxygraph/internal/partition"
	"proxygraph/internal/trace"
	"proxygraph/internal/workload"
)

func caseTwo(t testing.TB) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.New(
		cluster.LocalXeon("xeon-4c", 4, 2.5),
		cluster.LocalXeon("xeon-12c", 12, 2.5),
	)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// leakCheck fails the test if the goroutine count has not returned to its
// starting level shortly after the service closes.
func leakCheck(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= before {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Errorf("goroutine leak: %d before, %d after close", before, runtime.NumGoroutine())
	}
}

// TestServiceChaosEquivalence is the headline robustness property: under a
// fault schedule (crash + straggler with checkpoint recovery) plus injected
// transient attempt errors, the concurrent service with retries completes
// every admitted job, and every job's application output is bit-identical to
// a fault-free sequential Session run of the same jobs.
func TestServiceChaosEquivalence(t *testing.T) {
	cl := caseTwo(t)
	jobs, err := workload.RandomJobs(12, 256, 21)
	if err != nil {
		t.Fatal(err)
	}

	// Fault-free sequential baseline under the same estimator New defaults to.
	session := &workload.Session{Cluster: cl}
	pool, err := core.BuildPool(cl, apps.All(), core.NewThreadCount())
	if err != nil {
		t.Fatal(err)
	}
	base := make([]*engine.Result, len(jobs))
	for i, job := range jobs {
		jr, err := session.RunJob(pool, job, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		base[i] = jr.Exec
	}

	sched := &fault.Schedule{Events: []fault.Event{
		{Kind: fault.Crash, Step: 2, Machine: 0},
		{Kind: fault.Straggler, Step: 1, Machine: 1, Duration: 2, Factor: 0.5},
	}}
	if err := sched.Validate(len(cl.Machines)); err != nil {
		t.Fatal(err)
	}

	check := leakCheck(t)
	svc, err := New(Config{
		Cluster: cl,
		Fault: &engine.FaultConfig{
			Injector:        sched,
			CheckpointEvery: 2,
			Policy:          engine.RecoverCheckpoint,
		},
		Flaky:      &Flaky{Seed: 99, MaxFailures: 2},
		MaxRetries: 3,
		// Tight backoff keeps the wall-clock test fast; jitter still applies.
		BaseBackoff: 0.001, MaxBackoff: 0.01,
		Workers: 4,
		Seed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer check()
	defer svc.Close()

	ids := make([]int, len(jobs))
	for i, job := range jobs {
		id, err := svc.Submit(context.Background(), "tenant-a", job)
		if err != nil {
			t.Fatalf("job %d rejected: %v", i, err)
		}
		ids[i] = id
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	retried := 0
	for i, id := range ids {
		st, err := svc.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != "done" {
			t.Fatalf("job %d (%s/%s): state %s after %d attempts: %s",
				i, st.App, st.Graph, st.State, st.Attempts, st.Error)
		}
		retried += st.Attempts
		res, err := svc.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		// The recovery guarantee lifts to the service: the faulted, retried,
		// concurrent run matches the clean sequential run — exactly for
		// integer/min-style outputs, within the chaos suite's 1e-12 float
		// tolerance for sums that re-associate on the survivor placement.
		if !outputsClose(res.Output, base[i].Output) {
			t.Fatalf("job %d (%s on %s): output diverged from fault-free baseline", i, st.App, st.Graph)
		}
		if res.Recoveries == 0 && res.Supersteps > 2 {
			t.Errorf("job %d: crash at step 2 never recovered (supersteps %d)", i, res.Supersteps)
		}
	}
	if retried == 0 {
		t.Error("flaky injector with MaxFailures=2 caused no retries across 12 jobs")
	}
	c := svc.Counters()
	if c.Completed != uint64(len(jobs)) || c.Failed != 0 {
		t.Fatalf("counters: %+v", c)
	}
	if c.Retries == 0 {
		t.Error("no retries counted")
	}
}

// outputsClose compares application outputs structurally: floats within the
// chaos suite's relative 1e-12, everything else exactly.
func outputsClose(a, b any) bool {
	return valsClose(reflect.ValueOf(a), reflect.ValueOf(b))
}

func valsClose(a, b reflect.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		x, y := a.Float(), b.Float()
		return math.Abs(x-y) <= 1e-12*math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !valsClose(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Interface, reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return valsClose(a.Elem(), b.Elem())
	default:
		return a.CanInterface() && b.CanInterface() &&
			reflect.DeepEqual(a.Interface(), b.Interface())
	}
}

// TestServiceAdmissionControl pins queue bounds and priority shedding: a full
// global queue rejects equal-priority arrivals, sheds lower-priority queued
// jobs for higher-priority ones, and the per-tenant bound rejects a flooding
// tenant without touching others.
func TestServiceAdmissionControl(t *testing.T) {
	m := newMachine(mustNormalize(t, Config{
		Cluster:          caseTwo(t),
		QueueBound:       3,
		TenantQueueBound: 2,
		Tenants: []Tenant{
			{Name: "gold", Priority: 2},
			{Name: "bronze", Priority: 0},
		},
	}))
	job := workload.Job{}

	// bronze fills its per-tenant bound of 2.
	b1, _, err := m.submit(0, "bronze", "", job, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.submit(0, "bronze", "", job, nil, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.submit(0, "bronze", "", job, nil, 0); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("tenant bound: got %v", err)
	}
	// gold takes the last global slot...
	if _, _, err := m.submit(0, "gold", "", job, nil, 0); err != nil {
		t.Fatal(err)
	}
	// ...then sheds the oldest bronze job for the next gold arrival.
	g2, _, err := m.submit(0, "gold", "", job, nil, 0)
	if err != nil {
		t.Fatalf("priority arrival should shed, got %v", err)
	}
	if b1.state != StateShed {
		t.Fatalf("bronze job state %s, want shed", b1.state)
	}
	if g2.state != StateQueued {
		t.Fatalf("gold job state %s", g2.state)
	}
	// gold cannot shed gold: at its own per-tenant bound it is rejected.
	if _, _, err := m.submit(0, "gold", "", job, nil, 0); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("equal-priority overload: got %v", err)
	}
	c := m.counters
	if c.ShedPriority != 1 || c.RejectedOverload != 2 || c.Admitted != 4 {
		t.Fatalf("counters: %+v", c)
	}
	// Dispatch order: gold jobs (higher priority) leave the queue first even
	// though bronze arrived earlier.
	first, _ := m.dispatch(1)
	if first == nil || first.priority != 2 {
		t.Fatalf("dispatched %+v, want a gold job", first)
	}
}

func mustNormalize(t *testing.T, cfg Config) Config {
	t.Helper()
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestServiceBreaker walks the breaker's full cycle on the state machine:
// consecutive failures trip it open, cooldown admits a half-open probe,
// a failed probe re-opens, a successful probe closes.
func TestServiceBreaker(t *testing.T) {
	cfg := mustNormalize(t, Config{
		Cluster:          caseTwo(t),
		BreakerThreshold: 2,
		BreakerCooldown:  5,
		QueueBound:       10,
	})
	m := newMachine(cfg)
	job := workload.Job{}
	failOnce := func(now float64) {
		js, _, err := m.submit(now, "t", "", job, nil, 0)
		if err != nil {
			t.Fatalf("submit at %g: %v", now, err)
		}
		d, _ := m.dispatch(now)
		if d != js {
			t.Fatalf("dispatch at %g returned %v", now, d)
		}
		m.fail(now, js, errors.New("boom"), false)
	}

	failOnce(0)
	failOnce(1) // second consecutive failure: trips
	if ts := m.tenant("t"); ts.breaker != breakerOpen {
		t.Fatalf("breaker state %d, want open", ts.breaker)
	}
	if _, _, err := m.submit(2, "t", "", job, nil, 0); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open breaker admitted: %v", err)
	}
	// Cooldown elapses: one probe admitted, a second rejected while it runs.
	probe, _, err := m.submit(7, "t", "", job, nil, 0)
	if err != nil {
		t.Fatalf("half-open probe rejected: %v", err)
	}
	if _, _, err := m.submit(7, "t", "", job, nil, 0); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("second probe admitted: %v", err)
	}
	// Failed probe re-opens and counts a trip.
	if d, _ := m.dispatch(7); d != probe {
		t.Fatal("probe not dispatched")
	}
	m.fail(7, probe, errors.New("boom"), false)
	if ts := m.tenant("t"); ts.breaker != breakerOpen {
		t.Fatal("failed probe did not re-open breaker")
	}
	// Next cooldown: successful probe closes.
	probe2, _, err := m.submit(13, "t", "", job, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := m.dispatch(13); d != probe2 {
		t.Fatal("probe2 not dispatched")
	}
	m.complete(13, probe2, workload.JobResult{Exec: &engine.Result{}})
	if ts := m.tenant("t"); ts.breaker != breakerClosed {
		t.Fatal("successful probe did not close breaker")
	}
	if m.counters.BreakerTrips != 2 {
		t.Fatalf("trips = %d, want 2", m.counters.BreakerTrips)
	}
}

// TestServiceBreakerProbeShedFreesSlot pins the probe slot of a half-open
// breaker: a probe shed at dispatch frees it, so the breaker stays half-open
// and the tenant's next submission probes, while an older job shed as the
// probe starts leaves it taken.
func TestServiceBreakerProbeShedFreesSlot(t *testing.T) {
	cfg := mustNormalize(t, Config{
		Cluster:          caseTwo(t),
		BreakerThreshold: 1,
		BreakerCooldown:  5,
		QueueBound:       10,
	})
	job := workload.Job{}
	submit := func(m *machine, now, deadline float64) *jobState {
		t.Helper()
		js, _, err := m.submit(now, "t", "", job, nil, deadline)
		if err != nil {
			t.Fatalf("submit at %g: %v", now, err)
		}
		return js
	}
	run := func(m *machine, now float64, js *jobState, ok bool) {
		t.Helper()
		if d, _ := m.dispatch(now); d != js {
			t.Fatalf("dispatch at %g returned %v, want job %d", now, d, js.id)
		}
		if ok {
			m.complete(now, js, workload.JobResult{Exec: &engine.Result{}})
		} else {
			m.fail(now, js, errors.New("boom"), false)
		}
	}

	// One failed job trips the breaker; after the cooldown a probe with a
	// deadline is admitted and shed at dispatch. Every later submission is
	// admitted: the first probes and closes the breaker.
	m := newMachine(cfg)
	run(m, 0, submit(m, 0, 0), false)
	probe := submit(m, 10, 11)
	if d, _ := m.dispatch(12); d != nil || probe.state != StateShed {
		t.Fatalf("dispatch at 12 returned %v, probe %s; want nothing and the probe shed", d, probe.state)
	}
	for _, now := range []float64{100, 200, 300} {
		run(m, now, submit(m, now, 0), true)
	}
	if ts := m.tenant("t"); ts.breaker != breakerClosed {
		t.Fatalf("breaker state %d, want closed", ts.breaker)
	}

	// An older queued job whose deadline passes while the breaker is open
	// is shed as the probe starts; the probe still holds the slot.
	m = newMachine(cfg)
	failed := submit(m, 0, 0)
	older := submit(m, 0, 20)
	run(m, 0, failed, false)
	probe = submit(m, 10, 0)
	if d, _ := m.dispatch(25); d != probe || older.state != StateShed {
		t.Fatalf("dispatch at 25 returned %v, older job %s; want the probe and the older job shed", d, older.state)
	}
	if _, _, err := m.submit(25, "t", "", job, nil, 0); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("submission while the probe runs: %v, want ErrCircuitOpen", err)
	}
	m.complete(26, probe, workload.JobResult{Exec: &engine.Result{}})
	submit(m, 26, 0)
}

// TestServiceRetriedThenDoneHasNoError pins that a job whose first attempt
// failed and whose retry completed reports no error.
func TestServiceRetriedThenDoneHasNoError(t *testing.T) {
	jobs, err := workload.RandomJobs(4, 256, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Cluster:    caseTwo(t),
		Flaky:      &Flaky{Seed: 1, MaxFailures: 1},
		MaxRetries: 1,
	}
	arrivals := make([]Arrival, len(jobs))
	for i, job := range jobs {
		arrivals[i] = Arrival{Tenant: "t", Job: job}
	}
	rep, err := Replay(cfg, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	retried := 0
	for _, js := range rep.Jobs {
		if js.State != StateDone.String() {
			t.Fatalf("job %d ended %s, want done", js.ID, js.State)
		}
		if js.Attempts > 0 { // Attempts counts the failed ones
			retried++
		}
		if js.Error != "" {
			t.Errorf("job %d is done after %d failed attempts but reports error %q", js.ID, js.Attempts, js.Error)
		}
	}
	if retried == 0 {
		t.Fatal("no job was retried; the scenario does not exercise a failed attempt")
	}
}

// TestServiceBudget pins post-paid budget enforcement: jobs admit until the
// tenant's charged spend crosses its cap, then reject with ErrBudgetExhausted.
func TestServiceBudget(t *testing.T) {
	cfg := mustNormalize(t, Config{
		Cluster: caseTwo(t),
		Tenants: []Tenant{{Name: "metered", Budget: Budget{SimSeconds: 1.0}}},
	})
	m := newMachine(cfg)
	job := workload.Job{}
	js, _, err := m.submit(0, "metered", "", job, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := m.dispatch(0); d != js {
		t.Fatal("dispatch")
	}
	m.complete(0, js, workload.JobResult{Exec: &engine.Result{SimSeconds: 0.6}, IngressSeconds: 0.3})
	// 0.9s spent: still under budget.
	js2, _, err := m.submit(1, "metered", "", job, nil, 0)
	if err != nil {
		t.Fatalf("under-budget submit rejected: %v", err)
	}
	if d, _ := m.dispatch(1); d != js2 {
		t.Fatal("dispatch 2")
	}
	m.complete(1, js2, workload.JobResult{Exec: &engine.Result{SimSeconds: 0.5}})
	// 1.4s spent >= 1.0 cap: cut off.
	if _, _, err := m.submit(2, "metered", "", job, nil, 0); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("over-budget submit: %v", err)
	}
	if m.counters.RejectedBudget != 1 {
		t.Fatalf("counters: %+v", m.counters)
	}
}

// TestServiceBackoffDeterministic pins the retry delay arithmetic: capped
// exponential growth, jitter within [0.5, 1.5), and bit-identical values for
// identical (seed, job, attempt) triples.
func TestServiceBackoffDeterministic(t *testing.T) {
	cfg := mustNormalize(t, Config{Cluster: caseTwo(t), BaseBackoff: 0.1, MaxBackoff: 1, Seed: 5})
	a, b := newMachine(cfg), newMachine(cfg)
	for attempt := 1; attempt <= 8; attempt++ {
		d := a.backoff(3, attempt)
		if d != b.backoff(3, attempt) {
			t.Fatalf("attempt %d: backoff not deterministic", attempt)
		}
		base := math.Min(1, 0.1*math.Pow(2, float64(attempt-1)))
		if d < 0.5*base || d >= 1.5*base {
			t.Fatalf("attempt %d: backoff %g outside [%g, %g)", attempt, d, 0.5*base, 1.5*base)
		}
	}
	if a.backoff(3, 1) == a.backoff(4, 1) {
		t.Error("distinct jobs share jitter")
	}
}

// TestServiceReplayDeterministic pins the golden-file property: the same
// config and arrivals replay to a deeply equal report, twice in a row.
func TestServiceReplayDeterministic(t *testing.T) {
	cl := caseTwo(t)
	jobs, err := workload.RandomJobs(8, 256, 31)
	if err != nil {
		t.Fatal(err)
	}
	scenario := func() (Config, []Arrival) {
		cfg := Config{
			Cluster:          cl,
			Cache:            workload.NewBoundedPlacementCache(4, 0),
			ChargeIngress:    true,
			Flaky:            &Flaky{Seed: 3, MaxFailures: 1},
			MaxRetries:       2,
			QueueBound:       4,
			TenantQueueBound: 3,
			Tenants: []Tenant{
				{Name: "gold", Priority: 1},
				{Name: "bronze", Priority: 0},
			},
			Workers: 2,
			Seed:    11,
		}
		arrivals := make([]Arrival, len(jobs))
		for i, job := range jobs {
			tenant := "bronze"
			if i%3 == 0 {
				tenant = "gold"
			}
			arrivals[i] = Arrival{AtSeconds: float64(i) * 0.01, Tenant: tenant, Job: job}
		}
		return cfg, arrivals
	}
	cfgA, arrA := scenario()
	repA, err := Replay(cfgA, arrA)
	if err != nil {
		t.Fatal(err)
	}
	cfgB, arrB := scenario()
	repB, err := Replay(cfgB, arrB)
	if err != nil {
		t.Fatal(err)
	}
	// IngressWallSeconds is host wall time, legitimately nondeterministic.
	repA.Cache.IngressWallSeconds, repB.Cache.IngressWallSeconds = 0, 0
	if !reflect.DeepEqual(repA, repB) {
		t.Fatalf("replays diverged:\nA: %+v\nB: %+v", repA, repB)
	}
	if repA.Counters.Completed == 0 {
		t.Fatal("replay completed nothing")
	}
	if repA.Counters.Retries == 0 {
		t.Error("flaky replay recorded no retries")
	}
	if repA.Cache.Hits == 0 {
		t.Error("repeated graphs should hit the placement cache")
	}
}

// TestServiceReplayDeadline pins deadline shedding on the simulated clock: a
// job whose deadline expires while it waits behind a long queue is shed, not
// run.
func TestServiceReplayDeadline(t *testing.T) {
	cl := caseTwo(t)
	jobs, err := workload.RandomJobs(3, 256, 41)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Cluster: cl, Workers: 1, QueueBound: 8}
	arrivals := []Arrival{
		{AtSeconds: 0, Tenant: "t", Job: jobs[0]},
		// Far too tight to outlive the first job's makespan on one worker.
		{AtSeconds: 0, Tenant: "t", Job: jobs[1], DeadlineSeconds: 1e-9},
		{AtSeconds: 0, Tenant: "t", Job: jobs[2]},
	}
	rep, err := Replay(cfg, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counters.ShedDeadline != 1 {
		t.Fatalf("counters: %+v", rep.Counters)
	}
	if rep.Jobs[1].State != "shed" {
		t.Fatalf("job states: %+v", rep.Jobs)
	}
	if rep.Jobs[0].State != "done" || rep.Jobs[2].State != "done" {
		t.Fatalf("surviving jobs: %+v", rep.Jobs)
	}
}

// TestServiceContextCancellation pins live cancellation: a queued job whose
// context is cancelled is shed without running.
func TestServiceContextCancellation(t *testing.T) {
	cl := caseTwo(t)
	jobs, err := workload.RandomJobs(4, 256, 51)
	if err != nil {
		t.Fatal(err)
	}
	check := leakCheck(t)
	svc, err := New(Config{Cluster: cl, Workers: 1, QueueBound: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer check()
	defer svc.Close()

	if _, err := svc.Submit(context.Background(), "t", jobs[0]); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	id, err := svc.Submit(ctx, "t", jobs[1])
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	wctx, wcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer wcancel()
	st, err := svc.Wait(wctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "shed" && st.State != "failed" {
		t.Fatalf("cancelled job state %s", st.State)
	}
	if err := svc.Drain(wctx); err != nil {
		t.Fatal(err)
	}
}

// TestServiceClose pins shutdown: queued jobs cancel, Submit rejects with
// ErrClosed, Close is idempotent, workers exit (leak check).
func TestServiceClose(t *testing.T) {
	cl := caseTwo(t)
	jobs, err := workload.RandomJobs(6, 256, 61)
	if err != nil {
		t.Fatal(err)
	}
	check := leakCheck(t)
	svc, err := New(Config{Cluster: cl, Workers: 1, QueueBound: 16})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, 0, len(jobs))
	for _, job := range jobs {
		id, err := svc.Submit(context.Background(), "t", job)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	svc.Close()
	svc.Close() // idempotent
	check()
	if _, err := svc.Submit(context.Background(), "t", jobs[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
	c := svc.Counters()
	if c.Canceled == 0 {
		t.Error("close cancelled no queued jobs")
	}
	terminal := 0
	for _, id := range ids {
		st, err := svc.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case "done", "canceled", "failed", "shed":
			terminal++
		default:
			t.Errorf("job %d left in state %s", id, st.State)
		}
	}
	if terminal != len(ids) {
		t.Fatalf("%d/%d jobs terminal after close", terminal, len(ids))
	}
}

// TestServiceConfigValidation pins the loud-failure contract for bad configs.
func TestServiceConfigValidation(t *testing.T) {
	cl := caseTwo(t)
	cases := []Config{
		{},                             // no cluster
		{Cluster: cl, QueueBound: -1},  // negative bound
		{Cluster: cl, Workers: -2},     // negative workers
		{Cluster: cl, BaseBackoff: -1}, // negative duration
		{Cluster: cl, Tenants: []Tenant{{Name: "a"}, {Name: "a"}}}, // dup tenant
		{Cluster: cl, Tenants: []Tenant{{}}},                       // unnamed tenant
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
	if _, err := Replay(Config{}, nil); err == nil {
		t.Error("replay accepted missing cluster")
	}
}

// TestServiceConfigErrorNamesFirstBound pins which of several negative
// bounds the error names: the first in declaration order, on every call.
func TestServiceConfigErrorNamesFirstBound(t *testing.T) {
	cl := caseTwo(t)
	for i := 0; i < 100; i++ {
		cfg := Config{Cluster: cl, QueueBound: -1, Workers: -1}
		err := cfg.normalize()
		if err == nil || err.Error() != "service: negative queue bound (-1)" {
			t.Fatalf("call %d: %v, want the queue bound named", i, err)
		}
	}
}

// TestServiceDefaultPartitionerKeysLikeHybrid pins that the service ingresses
// through the session's default partitioner, which keys the placement cache
// exactly as a fresh partition.NewHybrid() does: a job served by the service
// and then run by a Session with an explicit Hybrid over the same cache and
// estimator is one miss, then one hit.
func TestServiceDefaultPartitionerKeysLikeHybrid(t *testing.T) {
	cl := caseTwo(t)
	jobs, err := workload.RandomJobs(1, 256, 5)
	if err != nil {
		t.Fatal(err)
	}
	cache := workload.NewPlacementCache()
	check := leakCheck(t)
	defer check()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	svc, err := New(Config{Cluster: cl, Cache: cache, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	id, err := svc.Submit(ctx, "t", jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	st, err := svc.Wait(ctx, id)
	svc.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" || st.CacheHit {
		t.Fatalf("served job: state %s, cache hit %v; want done, a miss", st.State, st.CacheHit)
	}

	pool, err := core.BuildPool(cl, apps.WithExtensions(), core.NewThreadCount())
	if err != nil {
		t.Fatal(err)
	}
	session := &workload.Session{Cluster: cl, Partitioner: partition.NewHybrid(), Cache: cache}
	jr, err := session.RunJob(pool, jobs[0], engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !jr.CacheHit {
		t.Error("the Hybrid session's job missed the entry the served job placed")
	}
	if st := cache.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Errorf("cache saw %d misses and %d hits, want 1 and 1", st.Misses, st.Hits)
	}
}

// TestServiceTraceEvents pins the control-plane trace stream: a replayed
// overload scenario emits admission verdicts, queue waits, retries and shed
// events through the collector.
func TestServiceTraceEvents(t *testing.T) {
	cl := caseTwo(t)
	jobs, err := workload.RandomJobs(6, 256, 71)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	cfg := Config{
		Cluster:    cl,
		Flaky:      &Flaky{Seed: 1, MaxFailures: 1},
		MaxRetries: 2,
		QueueBound: 2,
		Workers:    1,
		Trace:      rec,
	}
	arrivals := make([]Arrival, len(jobs))
	for i, job := range jobs {
		arrivals[i] = Arrival{AtSeconds: 0, Tenant: "t", Job: job}
	}
	if _, err := Replay(cfg, arrivals); err != nil {
		t.Fatal(err)
	}
	kinds := map[trace.Kind]int{}
	for _, e := range rec.Events {
		kinds[e.Kind]++
	}
	for _, k := range []trace.Kind{trace.KindAdmit, trace.KindQueue} {
		if kinds[k] == 0 {
			t.Errorf("no %v events recorded", k)
		}
	}
	// 6 arrivals into a 2-slot queue with 1 worker: some rejections.
	admits, rejects := 0, 0
	for _, e := range rec.Events {
		if e.Kind != trace.KindAdmit {
			continue
		}
		if e.Label == "admit" {
			admits++
		} else {
			rejects++
		}
	}
	if admits == 0 || rejects == 0 {
		t.Fatalf("admit=%d reject=%d, want both nonzero", admits, rejects)
	}
	if kinds[trace.KindRetry] == 0 {
		t.Error("flaky run emitted no retry events")
	}
}

// TestFlakyDeterministic pins the injector contract New and Replay rely on.
func TestFlakyDeterministic(t *testing.T) {
	f := &Flaky{Seed: 7, MaxFailures: 3}
	sawFailure := false
	for id := 1; id <= 50; id++ {
		n := f.Failures(id)
		if n < 0 || n > 3 {
			t.Fatalf("job %d: %d failures outside [0, 3]", id, n)
		}
		if n > 0 {
			sawFailure = true
		}
		for a := 0; a < 6; a++ {
			err := f.Err(id, a)
			if (a < n) != (err != nil) {
				t.Fatalf("job %d attempt %d: err=%v with %d failures", id, a, err, n)
			}
			if err != nil && !errors.Is(err, ErrTransient) {
				t.Fatalf("injected error not ErrTransient: %v", err)
			}
		}
	}
	if !sawFailure {
		t.Error("injector never fails anything")
	}
	var nilF *Flaky
	if nilF.Err(1, 0) != nil || nilF.Failures(9) != 0 {
		t.Error("nil injector should be a no-op")
	}
	_ = fmt.Sprintf("%v", f) // keep fmt imported alongside future debugging
}
