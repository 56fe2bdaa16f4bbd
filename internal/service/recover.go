package service

import (
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
//     the tenant's threshold (a closed→open trip counts in BreakerTrips), a
//     completion resets it, a snapshot's tenant frame restores both, and a
//     breaker open (or half-open) at the crash reopens with its cooldown
//     counted from the restart. A job that fails because it cannot be
//     re-resolved counts too, as its fail record will at the next recovery.
//     With the breaker disabled all of this is ignored.
//
// restore runs each record through the live transitions (admit and retire)
// with the journal and the collector detached: the records are already
// written and were observed then. Only jobs that cannot be re-resolved get a
// fresh fail record, so the next recovery agrees. The recovered counters obey
// the live service's laws: a submission counts once its job is admitted (by
// an admit record paired with its submit, or a snapshot's job record), and
// every admitted job counts under its state.
func (m *machine) restore(recs []Record, resolve func(app, graphName string, seed uint64) (workload.Job, error)) {
	journal, tr := m.cfg.Journal, m.cfg.Trace
	m.cfg.Journal, m.cfg.Trace = nil, nil
	subs := make(map[int]Record) // submit seq -> record, awaiting its admit
	charged := make(map[int]bool)
	maxSeq := 0
	for _, r := range recs {
		maxSeq = max(maxSeq, int(r.Seq))
		js := m.jobs[r.ID]
		open := js != nil && !js.terminal()
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
			if js == nil {
				js = jobOf(r.ID, r)
				charged[js.id] = r.State == StateDone // the tenant frame holds it
				m.counters.Submitted++
				m.restoreJob(js, r.State)
			}
		case RecordSubmit:
			subs[int(r.Seq)] = r
		case RecordAdmit:
			if sub, ok := subs[r.ID]; ok && js == nil {
				m.counters.Submitted++
				m.admit(jobOf(r.ID, sub))
			}
		case RecordStart, RecordRetry:
			if open {
				js.attempts = r.Attempt
				if r.Kind == RecordRetry {
					m.counters.Retries++
				}
			}
		case RecordComplete:
			if open {
				js.attempts, js.execSeconds, js.ingress, js.energy, js.cacheHit = r.Attempt, r.Seconds, r.Ingress, r.Energy, r.Flag
				m.retire(0, js, StateDone, "")
			}
		case RecordBudgetCharge:
			if js != nil && !charged[r.ID] {
				charged[r.ID] = true
				ts := m.tenant(r.Tenant)
				ts.spentSeconds += r.Seconds
				ts.spentJoules += r.Energy
			}
		case RecordFail:
			if open {
				js.attempts, js.err = r.Attempt, errors.New(r.Error)
				m.retire(0, js, StateFailed, "")
			}
		case RecordShed:
			if open {
				to := StateShed
				if r.Error == shedReasonCanceled {
					to = StateCanceled
				}
				m.retire(0, js, to, r.Error)
			}
		}
	}
	m.counters.RecoveredDone = uint64(len(m.retired))

	// Derive the budget charge for any completed job whose paired charge
	// record was lost to the crash. complete() always writes the two records
	// adjacently under the machine lock, so a prefix cut can orphan at most
	// the tail pair — but the derivation is written to handle any number.
	for _, js := range m.retired {
		if js.state == StateDone && !charged[js.id] {
			ts := m.tenant(js.tenant)
			ts.spentSeconds += js.ingress + js.execSeconds
			ts.spentJoules += js.energy
		}
	}

	// Re-resolve the workload for every job going back into the queue. The
	// journal stores identity (app, graph, seed), not the graph itself —
	// resolution rebuilds or looks up the actual job. Unresolvable jobs fail
	// loudly instead of haunting the queue, and that failure is new: it is
	// journaled and observed.
	m.cfg.Journal, m.cfg.Trace = journal, tr
	for _, js := range append([]*jobState(nil), m.queue...) {
		var job workload.Job
		err := errors.New("service: no Resolve configured")
		if resolve != nil {
			job, err = resolve(js.appName, js.graphName, js.seed)
		}
		if err != nil {
			js.err = fmt.Errorf("service: unresolvable after recovery (app %q graph %q): %w", js.appName, js.graphName, err)
			m.retire(0, js, StateFailed, "")
			continue
		}
		js.job = job
	}
	m.counters.RecoveredRequeued = uint64(len(m.queue))

	// Ids continue after the highest replayed sequence even if the journal
	// was swapped for a fresh one, so recovered status URLs stay unique.
	m.nextID = max(m.nextID, maxSeq)
}

// restoreJob admits a job rebuilt from its snapshot record, in the state to
// the record holds: a queued or running job stays queued, a terminal one
// retires into the tombstone it was, a shed one under the reason its error
// names. The retirement runs with the breaker detached, because the
// snapshot's tenant frames, written first, already hold its effect.
func (m *machine) restoreJob(js *jobState, to State) {
	m.admit(js)
	if to < StateDone || to > StateCanceled { // queued, running or unknown
		return
	}
	reason := "priority"
	if js.err != nil && js.err.Error() == errShedDeadline.Error() {
		reason = "deadline"
	}
	threshold := m.cfg.BreakerThreshold
	m.cfg.BreakerThreshold = 0
	m.retire(0, js, to, reason)
	m.cfg.BreakerThreshold = threshold
}
