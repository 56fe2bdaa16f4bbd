package exp

import (
	"fmt"

	"proxygraph/internal/cluster"
	"proxygraph/internal/engine"
	"proxygraph/internal/fault"
	"proxygraph/internal/metrics"
	"proxygraph/internal/rng"
	"proxygraph/internal/service"
	"proxygraph/internal/workload"
)

// ServiceOverloadStudy drives the multi-tenant job service through a bursty
// overload-and-recovery scenario on the deterministic replay driver: three
// tenants (gold/silver/bronze at priorities 2/1/0, with a simulated-time
// budget on silver) submit bursts of mixed jobs into deliberately small
// queues while a fault schedule (crash + straggler, checkpoint recovery) and
// flaky transient ingress errors push the retry path, all through a bounded
// shared placement cache. The replay's simulated clock makes every admission
// verdict, shed decision, retry backoff and queue wait a pure function of the
// seed — the table is byte-reproducible, which is what lets a golden file pin
// the whole control plane.
func (l *Lab) ServiceOverloadStudy() (*metrics.Table, error) {
	cl := Case2Cluster()
	seed := rng.Hash2(l.Cfg.Seed, 0x6f766c64 /* "ovld" */)
	jobs, err := workload.RandomJobs(30, l.Cfg.Scale, seed)
	if err != nil {
		return nil, err
	}
	sched := &fault.Schedule{Events: []fault.Event{
		{Kind: fault.Crash, Step: 2, Machine: 0},
		{Kind: fault.Straggler, Step: 0, Machine: 1, Duration: 2, Factor: 0.5},
	}}
	if err := sched.Validate(len(cl.Machines)); err != nil {
		return nil, err
	}

	// Tenant mix: bronze floods first (6 of every 10 arrivals, opening each
	// burst), gold and silver submit two each at the tail — so gold bursts
	// land on queues bronze already filled and must shed their way in. Three
	// bursts of 10 land 50 simulated milliseconds apart, far faster than two
	// workers drain jobs that each take tens of milliseconds.
	tenantOf := func(i int) string {
		switch i % 10 {
		case 6, 8:
			return "gold"
		case 7, 9:
			return "silver"
		default:
			return "bronze"
		}
	}
	arrivals := make([]service.Arrival, len(jobs))
	for i, job := range jobs {
		a := service.Arrival{
			AtSeconds: float64(i/10) * 0.05,
			Tenant:    tenantOf(i),
			Job:       job,
		}
		// Bronze jobs carry a tight deadline: under overload the tail of the
		// burst waits past it and is shed rather than run late.
		if a.Tenant == "bronze" {
			a.DeadlineSeconds = 0.05
		}
		arrivals[i] = a
	}

	// Calibrate silver's budget from a probe run of its first job so the cap
	// tracks the lab's scale: roughly two completed jobs, then cut off.
	probeCfg := l.overloadConfig(cl, sched, nil)
	probeCfg.QueueBound = 4
	var probeJob workload.Job
	for i := range arrivals {
		if arrivals[i].Tenant == "silver" {
			probeJob = arrivals[i].Job
			break
		}
	}
	probe, err := service.Replay(probeCfg, []service.Arrival{{Tenant: "silver", Job: probeJob}})
	if err != nil {
		return nil, err
	}
	probeSpend := probe.Tenants[0].SpentSeconds
	budget := 2.5 * probeSpend

	cache := workload.NewBoundedPlacementCache(4, 0)
	cfg := l.overloadConfig(cl, sched, cache)
	cfg.Tenants = []service.Tenant{
		{Name: "gold", Priority: 2},
		{Name: "silver", Priority: 1, Budget: service.Budget{SimSeconds: budget}},
		{Name: "bronze", Priority: 0},
	}
	rep, err := service.Replay(cfg, arrivals)
	if err != nil {
		return nil, err
	}

	// Fold the replay into per-tenant rows.
	type row struct {
		submitted, admitted              int
		rejOverload, rejBudget           int
		shed, completed, failed, retries int
	}
	rows := map[string]*row{}
	get := func(name string) *row {
		r, ok := rows[name]
		if !ok {
			r = &row{}
			rows[name] = r
		}
		return r
	}
	for i, a := range arrivals {
		r := get(a.Tenant)
		r.submitted++
		switch rep.Rejections[i] {
		case "overload":
			r.rejOverload++
		case "budget":
			r.rejBudget++
		}
	}
	for _, js := range rep.Jobs {
		r := get(js.Tenant)
		r.admitted++
		switch js.State {
		case "done":
			r.completed++
			r.retries += js.Attempts
		case "failed":
			r.failed++
			if js.Attempts > 0 {
				r.retries += js.Attempts - 1
			}
		case "shed":
			r.shed++
		}
	}

	t := metrics.NewTable(
		"Service under overload: bursty multi-tenant arrivals, faults + flaky ingress (Case 2, replay)",
		"tenant", "priority", "submitted", "admitted", "rej overload", "rej budget",
		"shed", "completed", "failed", "retries")
	for _, tn := range cfg.Tenants {
		r := get(tn.Name)
		t.AddRow(tn.Name, fmt.Sprint(tn.Priority),
			fmt.Sprint(r.submitted), fmt.Sprint(r.admitted),
			fmt.Sprint(r.rejOverload), fmt.Sprint(r.rejBudget),
			fmt.Sprint(r.shed), fmt.Sprint(r.completed),
			fmt.Sprint(r.failed), fmt.Sprint(r.retries))
	}
	c := rep.Counters
	t.AddRow("total", "-",
		fmt.Sprint(c.Submitted), fmt.Sprint(c.Admitted),
		fmt.Sprint(c.RejectedOverload), fmt.Sprint(c.RejectedBudget),
		fmt.Sprint(c.ShedPriority+c.ShedDeadline), fmt.Sprint(c.Completed),
		fmt.Sprint(c.Failed), fmt.Sprint(c.Retries))

	t.AddNote("faults %s with checkpoint-every-2 recovery; flaky ingress fails up to 2 leading attempts/job, 3 retries",
		sched.String())
	t.AddNote("queue wait p50 %s, p99 %s (simulated); drained at %s",
		metrics.Seconds(rep.QueueWaitP50), metrics.Seconds(rep.QueueWaitP99), metrics.Seconds(rep.SimSeconds))
	t.AddNote("placement cache (4 entries): %d hits, %d misses, %d evictions; silver budget %s (2.5x probe job)",
		rep.Cache.Hits, rep.Cache.Misses, rep.Cache.Evictions, metrics.Seconds(budget))
	t.AddNote("shed column: priority eviction (%d) + expired bronze deadlines (%d)",
		c.ShedPriority, c.ShedDeadline)
	return t, nil
}

// overloadConfig is the shared service shape of the overload study: small
// queues, two simulated workers, retries over flaky ingress, fault schedule
// with checkpoint recovery.
func (l *Lab) overloadConfig(cl *cluster.Cluster, sched *fault.Schedule, cache *workload.PlacementCache) service.Config {
	return service.Config{
		Cluster:       cl,
		Cache:         cache,
		ChargeIngress: true,
		Fault: &engine.FaultConfig{
			Injector:        sched,
			CheckpointEvery: 2,
			Policy:          engine.RecoverCheckpoint,
		},
		Flaky:            &service.Flaky{Seed: rng.Hash2(l.Cfg.Seed, 0x666c6b), MaxFailures: 2},
		MaxRetries:       3,
		QueueBound:       6,
		TenantQueueBound: 4,
		BaseBackoff:      0.05,
		MaxBackoff:       0.5,
		BreakerThreshold: 4,
		BreakerCooldown:  2,
		Workers:          2,
		Seed:             rng.Hash2(l.Cfg.Seed, 0x73767263 /* "svrc" */),
	}
}
