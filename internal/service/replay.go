package service

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"proxygraph/internal/apps"
	"proxygraph/internal/core"
	"proxygraph/internal/workload"
)

// Arrival is one submission in a replay scenario, timed in simulated seconds.
type Arrival struct {
	// AtSeconds is the submission time on the simulated clock. Arrivals are
	// processed in (AtSeconds, slice order).
	AtSeconds float64
	// Tenant names the submitting tenant.
	Tenant string
	// Job is the work.
	Job workload.Job
	// DeadlineSeconds, when positive, sheds the job if it has not started
	// running within that many seconds of arrival.
	DeadlineSeconds float64
}

// ReplayReport is the deterministic outcome of a replayed scenario: same
// Config and arrivals, byte-identical report — the property the overload
// study's golden file pins.
type ReplayReport struct {
	// Counters aggregates the run's control-plane activity.
	Counters Counters
	// Jobs holds every admitted job's final status, ordered by id.
	Jobs []JobStatus
	// Tenants holds per-tenant spend, ordered by name.
	Tenants []TenantUsage
	// Rejections maps each arrival index that was rejected to its verdict
	// ("overload", "breaker", "budget", "degraded").
	Rejections map[int]string
	// QueueWaitP50 and QueueWaitP99 summarize the dispatch waits in
	// simulated seconds.
	QueueWaitP50, QueueWaitP99 float64
	// SimSeconds is the simulated clock when the last job finished.
	SimSeconds float64
	// Cache snapshots the placement cache after the run (zero value when the
	// config has none).
	Cache workload.CacheStats
}

// Replay runs a scenario through the exact control-plane state machine the
// live Service uses, but on a discrete-event simulated clock with
// cfg.Workers simulated executors: a running attempt occupies an executor
// for its simulated makespan (charged ingress plus execution), a failed
// attempt fails instantly and waits out its jittered backoff in simulated
// time. Replay is single-threaded, so identical inputs give identical
// output — the concurrency properties live in the Service tests, the policy
// and accounting determinism lives here.
func Replay(cfg Config, arrivals []Arrival) (*ReplayReport, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	pool, err := core.BuildPool(cfg.Cluster, apps.WithExtensions(), core.NewThreadCount())
	if err != nil {
		return nil, err
	}
	session := &workload.Session{
		Cluster:       cfg.Cluster,
		Cache:         cfg.Cache,
		ChargeIngress: cfg.ChargeIngress,
	}
	m := newMachine(cfg)
	rep := &ReplayReport{Rejections: map[int]string{}}

	// One executing attempt on a simulated worker.
	type run struct {
		js     *jobState
		finish float64
		jr     workload.JobResult
	}
	var active []run
	// waits holds every dispatch's queue wait, for the report's percentiles.
	var waits []float64
	clock, next := 0.0, 0
	for {
		// Admit every arrival due at the current clock.
		for next < len(arrivals) && arrivals[next].AtSeconds <= clock {
			a := arrivals[next]
			deadline := 0.0
			if a.DeadlineSeconds > 0 {
				deadline = a.AtSeconds + a.DeadlineSeconds
			}
			if _, _, err := m.submit(a.AtSeconds, a.Tenant, "", a.Job, nil, deadline); err != nil {
				rep.Rejections[next] = verdict(err)
			}
			next++
		}
		// Fill free executors. Failed attempts (injected or real) cost zero
		// simulated time and re-queue immediately with backoff, so the loop
		// continues until nothing is ready now.
		var idleWait float64
		for len(active) < cfg.Workers {
			js, wait := m.dispatch(clock)
			if js == nil {
				idleWait = wait
				break
			}
			waits = append(waits, clock-js.enqueuedAt)
			jr, err := attempt(&cfg, session, pool, js, cfg.Trace)
			if err != nil {
				m.fail(clock, js, err, true)
				continue
			}
			active = append(active, run{js: js, finish: clock + jr.IngressSeconds + jr.Exec.SimSeconds, jr: jr})
		}
		// Advance to the next event: an arrival, a finish, or a backoff
		// expiring while an executor is free.
		event := math.Inf(1)
		if next < len(arrivals) {
			event = arrivals[next].AtSeconds
		}
		for _, r := range active {
			event = math.Min(event, r.finish)
		}
		if len(active) < cfg.Workers && idleWait > 0 {
			event = math.Min(event, clock+idleWait)
		}
		if math.IsInf(event, 1) {
			break
		}
		clock = event
		// Complete finishes due now, deterministically ordered by (finish
		// time, job id).
		sort.Slice(active, func(a, b int) bool {
			if active[a].finish != active[b].finish {
				return active[a].finish < active[b].finish
			}
			return active[a].js.id < active[b].js.id
		})
		kept := active[:0]
		for _, r := range active {
			if r.finish <= clock {
				m.complete(clock, r.js, r.jr)
				rep.SimSeconds = clock
			} else {
				kept = append(kept, r)
			}
		}
		active = kept
	}
	if !m.idle() || len(active) > 0 {
		return nil, fmt.Errorf("service: replay stalled with %d queued, %d running", len(m.queue), len(active))
	}

	rep.Counters = m.counters
	rep.Jobs = m.list("", 0, 0)
	rep.Tenants = m.usage()
	rep.QueueWaitP50 = percentile(waits, 0.50)
	rep.QueueWaitP99 = percentile(waits, 0.99)
	if cfg.Cache != nil {
		rep.Cache = cfg.Cache.Stats()
	}
	return rep, nil
}

// verdict names a typed admission error for the rejection map.
func verdict(err error) string {
	switch {
	case errors.Is(err, ErrCircuitOpen):
		return "breaker"
	case errors.Is(err, ErrBudgetExhausted):
		return "budget"
	case errors.Is(err, ErrDegraded):
		return "degraded"
	default:
		return "overload"
	}
}

// percentile returns the p-quantile (nearest-rank) of xs, 0 when empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}
