package service

import (
	"context"
	"errors"
	"fmt"

	"proxygraph/internal/workload"
)

// restore replays a decoded journal into a fresh machine, rebuilding tenant
// budgets, the queue, the idempotency index and every terminal job as a
// tombstone (the journal records charges, not outputs, so a recovered done job
// has no result), and re-enqueueing every job that was queued or running at
// crash time.
//
// Recovery invariants (see DESIGN.md §Durability and recovery):
//
//   - A submit record without its admit record was never acknowledged to the
//     client (the admit write is the acknowledgement barrier), so it is
//     dropped — the client's retry with the same idempotency key re-admits it
//     exactly once.
//   - Complete records precede their budget-charge records in the journal. A
//     crash between the two loses only the charge record; restore derives the
//     charge from the complete record instead, so a tenant is charged exactly
//     once for every completed job at any crash offset.
//   - Terminal states are sticky: once a complete/fail/shed record is
//     replayed, later records for the same id (possible after an unclean
//     journal swap) are ignored.
//   - In-flight jobs are re-enqueued with a background context (the original
//     submitter's context did not survive the crash) and a zero readyAt —
//     pending retry backoffs collapse, the job is immediately runnable.
//   - A compacted journal opens with a snapshot: each tenant's spend and
//     breaker state, and every job the service held, with its id. Spend is
//     restored as recorded, so a snapshotted done job is never charged
//     again; the records after the snapshot replay as above.
//   - Breaker state follows the journal: a terminal failure counts toward
//     the tenant's threshold, a completion resets it, a snapshot's tenant
//     frame restores both, and a breaker open (or half-open) at the crash
//     reopens with its cooldown counted from the restart. With the breaker
//     disabled all of this is ignored.
//
// restore never writes to the journal for replayed transitions (the records
// are already there); only jobs that cannot be re-resolved get a fresh fail
// record so the next recovery agrees with this one.
func (m *machine) restore(recs []Record, resolve func(app, graphName string, seed uint64) (workload.Job, error)) {
	subs := make(map[int]Record) // submit seq -> record, awaiting its admit
	charged := make(map[int]bool)
	maxSeq := 0
	for _, r := range recs {
		if int(r.Seq) > maxSeq {
			maxSeq = int(r.Seq)
		}
		switch r.Kind {
		case RecordTenant:
			ts := m.tenant(r.Tenant)
			ts.spentSeconds, ts.spentJoules = r.Seconds, r.Energy
			if m.cfg.BreakerThreshold > 0 {
				ts.consecFails = r.Attempt
				if r.Flag {
					ts.breaker = breakerOpen
				}
			}
		case RecordJob:
			if m.jobs[r.ID] != nil {
				continue
			}
			m.restoreJob(r)
			if r.State == StateDone {
				charged[r.ID] = true // the tenant's snapshotted spend holds it
			}
		case RecordSubmit:
			m.counters.Submitted++
			subs[int(r.Seq)] = r
		case RecordAdmit:
			sub, ok := subs[r.ID]
			if !ok || m.jobs[r.ID] != nil {
				continue
			}
			ts := m.tenant(sub.Tenant)
			js := &jobState{
				id:        r.ID,
				tenant:    sub.Tenant,
				priority:  sub.Priority,
				key:       sub.Key,
				fp:        sub.Fingerprint,
				appName:   sub.App,
				graphName: sub.Graph,
				seed:      sub.Seed,
				ctx:       context.Background(),
				state:     StateQueued,
				done:      make(chan struct{}),
			}
			m.jobs[js.id] = js
			m.queue = append(m.queue, js)
			ts.queued++
			if js.key != "" {
				m.idem[js.key] = js
			}
			m.counters.Admitted++
		case RecordStart:
			if js := m.jobs[r.ID]; js != nil && !js.terminal() {
				js.attempts = r.Attempt
			}
		case RecordRetry:
			if js := m.jobs[r.ID]; js != nil && !js.terminal() {
				js.attempts = r.Attempt
				m.counters.Retries++
			}
		case RecordComplete:
			js := m.jobs[r.ID]
			if js == nil || js.terminal() {
				continue
			}
			m.removeQueued(js)
			js.state = StateDone
			js.attempts = r.Attempt
			js.execSeconds = r.Seconds
			js.energy = r.Energy
			js.ingress = r.Ingress
			js.cacheHit = r.Flag
			m.counters.Completed++
			m.counters.RecoveredDone++
			if m.cfg.BreakerThreshold > 0 {
				ts := m.tenant(js.tenant)
				ts.consecFails, ts.breaker = 0, breakerClosed
			}
			m.finish(js)
		case RecordBudgetCharge:
			if m.jobs[r.ID] == nil || charged[r.ID] {
				continue
			}
			charged[r.ID] = true
			ts := m.tenant(r.Tenant)
			ts.spentSeconds += r.Seconds
			ts.spentJoules += r.Energy
		case RecordFail:
			js := m.jobs[r.ID]
			if js == nil || js.terminal() {
				continue
			}
			m.removeQueued(js)
			js.state = StateFailed
			js.attempts = r.Attempt
			js.err = errors.New(r.Error)
			m.counters.Failed++
			m.counters.RecoveredDone++
			if m.cfg.BreakerThreshold > 0 {
				ts := m.tenant(js.tenant)
				if ts.consecFails++; ts.consecFails >= m.cfg.BreakerThreshold {
					ts.breaker = breakerOpen
				}
			}
			m.finish(js)
		case RecordShed:
			js := m.jobs[r.ID]
			if js == nil || js.terminal() {
				continue
			}
			m.removeQueued(js)
			if r.Error == shedReasonCanceled {
				js.state = StateCanceled
				js.err = ErrClosed
				m.counters.Canceled++
			} else {
				js.state = StateShed
				js.err = fmt.Errorf("service: shed (%s)", r.Error)
				if r.Error == "deadline" {
					m.counters.ShedDeadline++
				} else {
					m.counters.ShedPriority++
				}
			}
			m.counters.RecoveredDone++
			m.finish(js)
		}
	}

	// Derive the budget charge for any completed job whose paired charge
	// record was lost to the crash. complete() always writes the two records
	// adjacently under the machine lock, so a prefix cut can orphan at most
	// the tail pair — but the derivation is written to handle any number.
	for id, js := range m.jobs {
		if js.state == StateDone && !charged[id] {
			ts := m.tenant(js.tenant)
			ts.spentSeconds += js.ingress + js.execSeconds
			ts.spentJoules += js.energy
		}
	}

	// Re-resolve the workload for every job going back into the queue. The
	// journal stores identity (app, graph, seed), not the graph itself —
	// resolution rebuilds or looks up the actual job. Unresolvable jobs fail
	// loudly instead of haunting the queue.
	for _, js := range append([]*jobState(nil), m.queue...) {
		var job workload.Job
		err := errors.New("service: no Resolve configured")
		if resolve != nil {
			job, err = resolve(js.appName, js.graphName, js.seed)
		}
		if err != nil {
			m.removeQueued(js)
			js.state = StateFailed
			js.err = fmt.Errorf("service: unresolvable after recovery (app %q graph %q): %w", js.appName, js.graphName, err)
			m.counters.Failed++
			m.journalBest(Record{Kind: RecordFail, ID: js.id, Attempt: js.attempts, Error: js.err.Error()})
			m.finish(js)
			continue
		}
		js.job = job
		m.counters.RecoveredRequeued++
	}

	// Ids continue after the highest replayed sequence even if the journal
	// was swapped for a fresh one, so recovered status URLs stay unique.
	if maxSeq > m.nextID {
		m.nextID = maxSeq
	}
}

// restoreJob rebuilds a job from its snapshot record: a queued or running job
// goes back into the queue, a terminal one becomes the tombstone it was.
func (m *machine) restoreJob(r Record) {
	js := &jobState{
		id:          r.ID,
		tenant:      r.Tenant,
		priority:    r.Priority,
		key:         r.Key,
		fp:          r.Fingerprint,
		appName:     r.App,
		graphName:   r.Graph,
		seed:        r.Seed,
		state:       StateQueued,
		attempts:    r.Attempt,
		execSeconds: r.Seconds,
		ingress:     r.Ingress,
		energy:      r.Energy,
		cacheHit:    r.Flag,
		done:        make(chan struct{}),
	}
	if r.Error != "" {
		js.err = errors.New(r.Error)
	}
	m.jobs[js.id] = js
	if js.key != "" {
		m.idem[js.key] = js
	}
	m.counters.Admitted++
	switch r.State {
	case StateQueued, StateRunning:
		js.ctx = context.Background()
		m.queue = append(m.queue, js)
		m.tenant(js.tenant).queued++
		return
	case StateDone:
		m.counters.Completed++
	case StateFailed:
		m.counters.Failed++
	case StateCanceled:
		js.err = ErrClosed
		m.counters.Canceled++
	}
	js.state = r.State
	m.counters.RecoveredDone++
	m.finish(js)
}
