// Package service turns workload.Session's batch loop into a long-running
// multi-tenant job service: per-tenant job streams enter through admission
// control (bounded per-tenant and global queues that reject rather than block),
// run on a worker pool with context deadline/cancellation propagation, retry
// transient failures with capped exponential backoff and deterministic seeded
// jitter, and degrade gracefully under pressure — priority load shedding, a
// per-tenant circuit breaker, and per-tenant simulated-seconds budgets
// charged from the advisor-guided execution accounting.
//
// The control-plane logic (admission verdicts, queue order, shedding, breaker
// transitions, backoff arithmetic, budget charging) lives in a time-abstract
// state machine (this file) that two drivers share: the live concurrent
// Service (service.go), whose clock is wall time, and the discrete-event
// Replay (replay.go), whose clock is simulated seconds — so the overload
// experiments are byte-deterministic while the live service exercises real
// goroutines, channels and contexts with identical policy decisions.
package service

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"

	"proxygraph/internal/engine"
	"proxygraph/internal/rng"
	"proxygraph/internal/trace"
	"proxygraph/internal/workload"
)

// Typed admission errors. Callers (and the HTTP front end) distinguish these
// to map overload to backpressure, breaker rejections to retry-later, and
// budget exhaustion to a hard per-tenant stop.
var (
	// ErrOverloaded rejects a submission because the global or per-tenant
	// queue bound is reached and no lower-priority job can be shed for it.
	ErrOverloaded = errors.New("service: overloaded, queue bounds reached")
	// ErrCircuitOpen rejects a submission while the tenant's circuit breaker
	// is open after consecutive failures.
	ErrCircuitOpen = errors.New("service: circuit breaker open")
	// ErrBudgetExhausted rejects a submission because the tenant has spent
	// its simulated-time budget.
	ErrBudgetExhausted = errors.New("service: tenant budget exhausted")
	// ErrClosed rejects submissions to a closed service.
	ErrClosed = errors.New("service: closed")
	// ErrUnknownJob reports a Status/Wait lookup for an id never issued, or
	// for a finished job compaction has pruned from the job table.
	ErrUnknownJob = errors.New("service: unknown job id")
	// ErrResultExpired reports a Result lookup for a done job whose output
	// the service no longer holds: it left the window of the last
	// QueueBound+Workers completions, or the job was recovered from the
	// journal. Status still reports the job's state and charges.
	ErrResultExpired = errors.New("service: job result expired")
	// ErrDegraded rejects submissions while the service is in degraded mode:
	// a journal write failed, so new work cannot be made durable. Admitted
	// work keeps draining; only admission is shed. See DESIGN.md §Durability.
	ErrDegraded = errors.New("service: degraded, journal write failed")
	// ErrKeyConflict rejects a submission whose idempotency key is already
	// bound to a different job (the fingerprints disagree) — reusing a key
	// for new work is a client bug, not a retry.
	ErrKeyConflict = errors.New("service: idempotency key bound to a different job")

	// errShedPriority and errShedDeadline are a shed job's error, by reason;
	// a snapshot keeps only this text, so a restore maps it back.
	errShedPriority = errors.New("service: shed (priority)")
	errShedDeadline = errors.New("service: shed (deadline)")
)

// State is a job's lifecycle position.
type State int

const (
	// StateQueued means admitted and waiting for a worker (or for a retry
	// backoff to elapse).
	StateQueued State = iota
	// StateRunning means an attempt is executing.
	StateRunning
	// StateDone means the job completed successfully.
	StateDone
	// StateFailed means every allowed attempt failed (or the job's context
	// was cancelled / its deadline expired before completion).
	StateFailed
	// StateShed means the job was evicted from the queue without running —
	// load shedding in favour of a higher-priority arrival, or a deadline
	// that expired while queued.
	StateShed
	// StateCanceled means the service closed before the job ran.
	StateCanceled
)

var stateNames = [...]string{"queued", "running", "done", "failed", "shed", "canceled"}

// String names the state for logs, tables and the HTTP API.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Budget caps a tenant's cumulative charged cost. Zero is unlimited.
type Budget struct {
	// SimSeconds caps charged simulated time (execution plus charged
	// ingress).
	SimSeconds float64
}

// Tenant declares one tenant's service class.
type Tenant struct {
	// Name identifies the tenant in Submit calls.
	Name string
	// Priority orders tenants under pressure: higher-priority submissions
	// may shed queued lower-priority jobs when the global queue is full.
	Priority int
	// Budget bounds the tenant's cumulative charged cost; the zero value is
	// unlimited.
	Budget Budget
}

// Counters aggregates the service's control-plane activity.
type Counters struct {
	// Submitted counts Submit calls; Admitted the ones that entered a queue.
	Submitted, Admitted uint64
	// RejectedOverload / RejectedBreaker / RejectedBudget split the
	// rejections by verdict.
	RejectedOverload, RejectedBreaker, RejectedBudget uint64
	// ShedPriority counts queued jobs evicted for higher-priority arrivals;
	// ShedDeadline queued jobs dropped because their deadline expired.
	ShedPriority, ShedDeadline uint64
	// Retries counts failed attempts rescheduled with backoff.
	Retries uint64
	// Completed and Failed count terminal outcomes; Canceled jobs were
	// queued when the service closed.
	Completed, Failed, Canceled uint64
	// BreakerTrips counts closed→open transitions across tenants, and
	// failed half-open probes. A recovery counts the closed→open trips its
	// replayed failures make.
	BreakerTrips uint64
	// Deduped counts submissions answered by an existing job via its
	// idempotency key; RejectedDegraded submissions shed in degraded mode,
	// the one whose own journal write failed included; RejectedKeyConflict
	// submissions whose key is bound to different work.
	Deduped, RejectedDegraded, RejectedKeyConflict uint64
	// JournalAppends counts records made durable; JournalErrors failed writes
	// (the first one flips degraded mode, so this is effectively 0 or 1).
	// A compaction's snapshot frames are not appends.
	JournalAppends, JournalErrors uint64
	// JournalCompactions counts the journal's snapshot-and-truncate
	// replacements; TombstonesPruned the terminal jobs dropped from the job
	// table after one (or, without a journal, on the same trigger).
	JournalCompactions, TombstonesPruned uint64
	// RecoveredDone and RecoveredRequeued count jobs rebuilt from the journal
	// at startup: already-terminal ones and in-flight ones re-enqueued.
	RecoveredDone, RecoveredRequeued uint64
	// ResultsExpired counts done jobs whose result left the window of the
	// last QueueBound+Workers completions.
	ResultsExpired uint64
}

// breaker states.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// tenantState is one tenant's runtime state.
type tenantState struct {
	Tenant
	queued       int
	spentSeconds float64
	spentJoules  float64

	breaker     int
	consecFails int
	openedAt    float64
	// probe is the half-open breaker's probe job until it retires, in any
	// state; while it is set, the tenant's other submissions are rejected.
	// Each open→half-open move clears it, so a probe still running from an
	// earlier half-open spell holds no slot.
	probe *jobState
}

// jobState is one submitted job's full record. The machine owns every field;
// drivers read snapshots via status(). A terminal job is a tombstone: retire
// drops its workload and context, and retain drops its result once newer
// completions push it out of the window, so what stays answers status() and
// nothing more.
type jobState struct {
	id       int
	tenant   string
	priority int
	// job is the runnable work, the zero Job once terminal.
	job workload.Job

	// key is the client-supplied idempotency key ("" = none); fp the job's
	// content fingerprint, used to detect key reuse for different work.
	key string
	fp  uint64
	// appName/graphName/seed identify the job durably: a recovered terminal
	// job never re-resolves its workload.Job, so status() must not reach
	// through js.job.
	appName   string
	graphName string
	seed      uint64

	// ctx is the submitter's context (live service only; nil in replays and
	// once terminal).
	ctx context.Context
	// deadline is an absolute clock value (replay only; 0 = none).
	deadline float64

	// state is StateQueued exactly while the job is in the machine's queue.
	state      State
	attempts   int
	enqueuedAt float64
	readyAt    float64
	queueWait  float64 // accumulated across dispatches

	// result is the successful attempt's engine result while the job is in
	// the retention window, nil otherwise. The charges below outlive it.
	result      *engine.Result
	execSeconds float64
	energy      float64
	ingress     float64
	cacheHit    bool
	err         error

	done chan struct{} // closed on terminal state (live service)
}

// terminal reports whether the job reached a final state.
func (j *jobState) terminal() bool {
	return j.state == StateDone || j.state == StateFailed || j.state == StateShed || j.state == StateCanceled
}

// machine is the shared control-plane state machine. It is not safe for
// concurrent use: the live Service guards it with its mutex, the replay
// driver is single-threaded. All times are opaque clock values supplied by
// the driver — wall seconds live, simulated seconds in replay.
type machine struct {
	cfg      Config
	tenants  map[string]*tenantState
	jobs     map[int]*jobState
	queue    []*jobState // admitted, waiting; unordered (selection scans)
	nextID   int
	running  int
	counters Counters
	// results is the retention window: the last len(results) completed jobs,
	// a ring whose next write goes to results[nextResult].
	results    []*jobState
	nextResult int
	// retired lists the terminal jobs still in the job table in the order
	// they finished; compact prunes its oldest.
	retired []*jobState
	// snap is compact's reusable buffer for the snapshot's frames.
	snap []byte
	// idem maps idempotency keys to their job: a resubmission with a known
	// key returns the existing job instead of double-executing it.
	idem map[string]*jobState
	// degraded flips on the first journal write error: new submissions are
	// rejected (durability can no longer be promised) while admitted work
	// drains, and further journal writes are skipped.
	degraded    bool
	degradedErr error
}

// newMachine builds the state machine for a normalized config. Its result
// window holds QueueBound+Workers jobs, the most the service can hold
// admitted at once: a client that submits up to that capacity and then waits
// finds every one of its results.
func newMachine(cfg Config) *machine {
	m := &machine{
		cfg:     cfg,
		tenants: make(map[string]*tenantState),
		jobs:    make(map[int]*jobState),
		idem:    make(map[string]*jobState),
		results: make([]*jobState, cfg.QueueBound+cfg.Workers),
	}
	for _, t := range cfg.Tenants {
		m.tenants[t.Name] = &tenantState{Tenant: t}
	}
	return m
}

// tenant returns (creating on first use) the named tenant's state. Unknown
// tenants get priority 0 and an unlimited budget.
func (m *machine) tenant(name string) *tenantState {
	ts, ok := m.tenants[name]
	if !ok {
		ts = &tenantState{Tenant: Tenant{Name: name}}
		m.tenants[name] = ts
	}
	return ts
}

// emit forwards a control-plane event to the configured collector.
func (m *machine) emit(e trace.Event) {
	if m.cfg.Trace != nil {
		m.cfg.Trace.Event(e)
	}
}

// degrade flips the service into degraded mode after a journal write error.
// It never panics and never loses in-memory state: admitted work drains,
// new submissions are rejected with ErrDegraded until the operator restarts
// the process against a healthy journal.
func (m *machine) degrade(err error) {
	if m.degraded {
		return
	}
	m.degraded = true
	m.degradedErr = err
	m.counters.JournalErrors++
	m.emit(trace.Event{Kind: trace.KindJournal, Machine: -1, Label: "error"})
	m.emit(trace.Event{Kind: trace.KindDegraded, Machine: -1, Label: "journal-error"})
}

// journalBest appends a record if journaling is enabled and healthy, flipping
// degraded mode on error. It is the best-effort path used for lifecycle
// records (start/retry/complete/fail/shed/charge): the in-memory transition
// proceeds regardless, because the work already exists — only *new* work is
// refused once durability is gone (see submit).
func (m *machine) journalBest(r Record) {
	if m.cfg.Journal == nil || m.degraded {
		return
	}
	if _, err := m.cfg.Journal.Append(r); err != nil {
		m.degrade(err)
		return
	}
	m.counters.JournalAppends++
	m.emit(trace.Event{Kind: trace.KindJournal, Machine: -1, Step: r.ID, Label: r.Kind.String()})
}

// jobNames extracts the durable identity fields from a job; both are empty
// for the zero Job used by policy-only tests.
func jobNames(job workload.Job) (app, graphName string) {
	if job.App != nil {
		app = job.App.Name()
	}
	if job.Graph != nil {
		graphName = job.Graph.Name
	}
	return app, graphName
}

// submit runs the admission pipeline at clock value now. On admission the
// returned job is queued; otherwise the typed error names the verdict, and
// exactly one rejection counter holds the submission. A non-empty key makes
// the submission idempotent: resubmitting the same work with the same key
// returns the original job (dup=true) instead of creating, executing and
// charging a second one.
func (m *machine) submit(now float64, tenant, key string, job workload.Job, ctx context.Context, deadline float64) (js *jobState, dup bool, err error) {
	m.counters.Submitted++
	degraded := func() (*jobState, bool, error) {
		return m.reject(&m.counters.RejectedDegraded, "reject-degraded", fmt.Errorf("%w: %v", ErrDegraded, m.degradedErr))
	}

	// Idempotent resubmission: answered before any admission check, because
	// the original admission verdict already happened — a dedup hit must not
	// be double-counted, double-charged, or rejected by a now-full queue.
	fp := job.Fingerprint()
	if key != "" {
		if prev, ok := m.idem[key]; ok {
			if prev.fp != fp {
				return m.reject(&m.counters.RejectedKeyConflict, "reject-key-conflict", fmt.Errorf("%w (key %q is job %d)", ErrKeyConflict, key, prev.id))
			}
			m.counters.Deduped++
			m.emit(trace.Event{Kind: trace.KindAdmit, Machine: -1, Step: prev.id, Label: "dedup"})
			return prev, true, nil
		}
	}

	// Degraded mode: the journal can no longer record new work, so admitting
	// it would silently break the durability contract. Shed at the door.
	if m.degraded {
		return degraded()
	}

	ts := m.tenant(tenant)

	// Circuit breaker: open rejects until the cooldown elapses; the first
	// submission after it becomes the half-open probe.
	if m.cfg.BreakerThreshold > 0 {
		switch ts.breaker {
		case breakerOpen:
			if now-ts.openedAt < m.cfg.BreakerCooldown {
				return m.reject(&m.counters.RejectedBreaker, "reject-breaker", fmt.Errorf("%w (tenant %q, %.2fs into cooldown)", ErrCircuitOpen, tenant, now-ts.openedAt))
			}
			ts.breaker = breakerHalfOpen
			ts.probe = nil
			m.emit(trace.Event{Kind: trace.KindBreaker, Machine: -1, Label: "half-open"})
		case breakerHalfOpen:
			if ts.probe != nil {
				return m.reject(&m.counters.RejectedBreaker, "reject-breaker", fmt.Errorf("%w (tenant %q, probe in flight)", ErrCircuitOpen, tenant))
			}
		}
	}

	// Budget: post-paid — jobs are admitted until the spend crosses the cap,
	// then the tenant is cut off. The charge is the advisor-guided execution
	// accounting (plus charged ingress), so budgets measure the same
	// simulated cost every experiment table reports.
	if ts.Budget.SimSeconds > 0 && ts.spentSeconds >= ts.Budget.SimSeconds {
		return m.reject(&m.counters.RejectedBudget, "reject-budget", fmt.Errorf("%w (tenant %q spent %.3fs)", ErrBudgetExhausted, tenant, ts.spentSeconds))
	}

	// Per-tenant bound: a tenant flooding its own queue is rejected without
	// touching anyone else's jobs.
	if ts.queued >= m.cfg.TenantQueueBound {
		return m.reject(&m.counters.RejectedOverload, "reject-overload", fmt.Errorf("%w (tenant %q queue at bound %d)", ErrOverloaded, tenant, m.cfg.TenantQueueBound))
	}

	// Global bound: shed the lowest-priority queued job if the arrival
	// outranks it, otherwise reject.
	if len(m.queue) >= m.cfg.QueueBound {
		victim := m.shedCandidate(ts.Priority)
		if victim == nil {
			return m.reject(&m.counters.RejectedOverload, "reject-overload", fmt.Errorf("%w (global queue at bound %d)", ErrOverloaded, m.cfg.QueueBound))
		}
		m.retire(now, victim, StateShed, "priority")
		if m.degraded {
			// Journaling the shed failed — the service degraded mid-admission.
			return degraded()
		}
	}

	// Durable admission: the job's id IS its submit record's journal sequence
	// number, so status URLs stay valid across crash and recovery. The admit
	// record after it is the acknowledgement barrier — a submit whose admit
	// never made it to disk was never acknowledged to the client, and recovery
	// drops it. Both writes are strict: if either fails the submission is
	// rejected and the service degrades, because accepting work that cannot
	// be made durable would silently break the contract.
	appName, graphName := jobNames(job)
	sub := Record{
		Kind: RecordSubmit, Tenant: tenant, App: appName, Graph: graphName,
		Seed: job.Seed, Key: key, Fingerprint: fp, Priority: ts.Priority,
	}
	var id int
	if m.cfg.Journal != nil {
		seq, err := m.cfg.Journal.Append(sub)
		if err == nil {
			m.counters.JournalAppends++
			id = int(seq)
			if id <= m.nextID { // monotonic guard (journal swapped mid-flight)
				id = m.nextID + 1
			}
			m.nextID = id
			_, err = m.cfg.Journal.Append(Record{Kind: RecordAdmit, ID: id})
		}
		if err != nil {
			m.degrade(err)
			return degraded()
		}
		m.counters.JournalAppends++
		m.emit(trace.Event{Kind: trace.KindJournal, Machine: -1, Step: id, Label: RecordSubmit.String()})
		m.emit(trace.Event{Kind: trace.KindJournal, Machine: -1, Step: id, Label: RecordAdmit.String()})
	} else {
		m.nextID++
		id = m.nextID
	}
	js = jobOf(id, sub)
	js.job, js.ctx, js.deadline = job, ctx, deadline
	js.enqueuedAt, js.readyAt = now, now
	m.admit(js)
	if m.cfg.BreakerThreshold > 0 && ts.breaker == breakerHalfOpen {
		ts.probe = js
	}
	m.emit(trace.Event{Kind: trace.KindAdmit, Machine: -1, Step: js.id, Label: "admit"})
	return js, false, nil
}

// reject counts a refused submission under counter, emits its admission
// event (label is "reject-" and the verdict) and returns err.
func (m *machine) reject(counter *uint64, label string, err error) (*jobState, bool, error) {
	*counter++
	m.emit(trace.Event{Kind: trace.KindAdmit, Machine: -1, Label: label})
	return nil, false, err
}

// admit enters a new job into the job table, its key into the idempotency
// index and the job into its tenant's queue.
func (m *machine) admit(js *jobState) {
	m.jobs[js.id] = js
	if js.key != "" {
		m.idem[js.key] = js
	}
	m.queue = append(m.queue, js)
	m.tenant(js.tenant).queued++
	m.counters.Admitted++
}

// shedCandidate returns the queued job load shedding would evict for an
// arrival of the given priority: the lowest-priority strictly-outranked job,
// oldest first among equals — or nil when nothing is outranked.
func (m *machine) shedCandidate(arriving int) *jobState {
	var victim *jobState
	for _, js := range m.queue {
		if js.priority >= arriving {
			continue
		}
		if victim == nil || js.priority < victim.priority ||
			(js.priority == victim.priority && js.id < victim.id) {
			victim = js
		}
	}
	return victim
}

// shedReasonCanceled is the RecordShed reason distinguishing shutdown
// cancellation from load shedding in the journal; recovery maps it back to
// StateCanceled.
const shedReasonCanceled = "canceled"

// retire ends a job in the terminal state to at clock value now. Every
// terminal transition comes here, so a job leaves the queue, takes its state,
// bumps that state's counter and retires exactly once: a shed one with its
// reason ("priority" or "deadline") and record, a canceled one with the
// RecordShed that recovery reads back, a failed one with its fail record
// and a breaker count or trip. A done one closes its tenant's breaker and
// drops the error of any failed attempt before it; its records are
// complete's. A half-open breaker's probe frees the probe slot in every
// state, so after a shed or canceled probe the breaker stays half-open and
// the tenant's next submission probes. The tombstone drops its workload and
// the submitter's context, so the job table pins neither the submitted graph
// nor anything the context carries, and joins the retired list.
func (m *machine) retire(now float64, js *jobState, to State, reason string) {
	if js.state == StateQueued {
		m.removeQueued(js)
	}
	js.state = to
	ts := m.tenant(js.tenant)
	if ts.probe == js {
		ts.probe = nil
	}
	breaker := m.cfg.BreakerThreshold > 0
	switch to {
	case StateDone:
		js.err = nil
		m.counters.Completed++
		if breaker {
			ts.consecFails = 0
			if ts.breaker != breakerClosed {
				ts.breaker = breakerClosed
				m.emit(trace.Event{Kind: trace.KindBreaker, Machine: -1, Label: "close"})
			}
		}
	case StateFailed:
		m.counters.Failed++
		m.journalBest(Record{Kind: RecordFail, ID: js.id, Attempt: js.attempts, Error: js.err.Error()})
		if breaker {
			ts.consecFails++
			tripped := ts.breaker == breakerClosed && ts.consecFails >= m.cfg.BreakerThreshold
			if tripped || ts.breaker == breakerHalfOpen { // a half-open breaker's probe failed
				ts.breaker, ts.openedAt = breakerOpen, now
				m.counters.BreakerTrips++
				m.emit(trace.Event{Kind: trace.KindBreaker, Machine: -1, Label: "trip"})
			}
		}
	case StateShed:
		js.err = errShedPriority
		counter := &m.counters.ShedPriority
		if reason == "deadline" {
			js.err, counter = errShedDeadline, &m.counters.ShedDeadline
		}
		*counter++
		m.journalBest(Record{Kind: RecordShed, ID: js.id, Error: reason})
		m.emit(trace.Event{Kind: trace.KindShed, Machine: -1, Step: js.id, Label: reason})
	case StateCanceled:
		js.err = ErrClosed
		m.counters.Canceled++
		m.journalBest(Record{Kind: RecordShed, ID: js.id, Error: shedReasonCanceled})
	}
	js.job, js.ctx = workload.Job{}, nil
	if js.done != nil {
		close(js.done)
	}
	m.retired = append(m.retired, js)
}

// removeQueued drops a job from the queue slice and its tenant's count.
func (m *machine) removeQueued(js *jobState) {
	if i := slices.Index(m.queue, js); i >= 0 {
		m.queue = slices.Delete(m.queue, i, i+1)
	}
	m.tenant(js.tenant).queued--
}

// compact bounds the job table and the journal. A terminal job is stale once
// it has left the window: R = QueueBound+Workers jobs finished after it, and
// it holds no result. When R jobs are stale, the journal is replaced by a
// snapshot of everything else (the tenants and every job still held) and
// only then do the stale jobs and their idempotency keys leave the table.
// Without a journal the stale jobs are pruned on the same trigger. A failed
// snapshot leaves the old journal intact and degrades the service like any
// failed write; a journal that cannot compact keeps every job. Only the live
// service calls compact: a replay reports every job it admitted.
func (m *machine) compact() {
	r := len(m.results)
	cut := len(m.retired) - r
	if cut < r {
		return
	}
	stale := 0
	for i := range cut {
		if m.stale(i, cut) {
			stale++
		}
	}
	if stale < r {
		return
	}
	if m.cfg.Journal != nil {
		c, ok := m.cfg.Journal.(compactor)
		if !ok || m.degraded {
			return
		}
		m.snap = m.appendSnapshot(m.snap[:0], cut)
		if err := c.compact(m.snap); err != nil {
			m.degrade(err)
			return
		}
		m.counters.JournalCompactions++
	}
	kept := m.retired[:0]
	for i, js := range m.retired {
		if !m.stale(i, cut) {
			kept = append(kept, js)
			continue
		}
		delete(m.jobs, js.id)
		if js.key != "" && m.idem[js.key] == js {
			delete(m.idem, js.key)
		}
		m.counters.TombstonesPruned++
	}
	clear(m.retired[len(kept):])
	m.retired = kept
}

// stale reports whether retired[i] has left the window, for a compaction
// whose cut leaves R jobs finished after it: it is older than the cut and
// holds no result.
func (m *machine) stale(i, cut int) bool { return i < cut && m.retired[i].result == nil }

// appendSnapshot appends the snapshot body for a compaction that prunes the
// stale jobs among retired[:cut]: one RecordTenant per tenant, by name, then
// one RecordJob per job kept — the queued and running ones by id, then the
// terminal ones in the order they finished, so a restore rebuilds the
// retired list. Spend and unfinished work come first: a snapshot is only
// ever written whole, but were one torn, it would lose tombstones first.
func (m *machine) appendSnapshot(dst []byte, cut int) []byte {
	for _, name := range slices.Sorted(maps.Keys(m.tenants)) {
		ts := m.tenants[name]
		dst = appendFrame(dst, Record{
			Kind: RecordTenant, Tenant: name,
			Seconds: ts.spentSeconds, Energy: ts.spentJoules,
			Attempt: ts.consecFails, Flag: ts.breaker != breakerClosed,
		})
	}
	live := make([]*jobState, 0, max(len(m.jobs)-len(m.retired), 0))
	for _, js := range m.jobs {
		if !js.terminal() {
			live = append(live, js)
		}
	}
	slices.SortFunc(live, func(a, b *jobState) int { return a.id - b.id })
	for _, js := range live {
		dst = appendFrame(dst, jobRecord(js))
	}
	for i, js := range m.retired {
		if !m.stale(i, cut) {
			dst = appendFrame(dst, jobRecord(js))
		}
	}
	return dst
}

// jobRecord is a job's RecordJob: everything status() and a restore need.
func jobRecord(js *jobState) Record {
	r := Record{
		Kind: RecordJob, ID: js.id, State: js.state, Attempt: js.attempts,
		Priority: js.priority, Tenant: js.tenant, App: js.appName,
		Graph: js.graphName, Key: js.key, Seed: js.seed, Fingerprint: js.fp,
		Seconds: js.execSeconds, Ingress: js.ingress, Energy: js.energy,
		Flag: js.cacheHit,
	}
	if js.err != nil {
		r.Error = js.err.Error()
	}
	return r
}

// jobOf is jobRecord's inverse but for the state: the job a submit or
// snapshot record describes, queued, under the given id (a submit record's id
// is its sequence number, not a field). A snapshot job's state is
// restoreJob's to restore.
func jobOf(id int, r Record) *jobState {
	js := &jobState{
		id: id, attempts: r.Attempt,
		priority: r.Priority, tenant: r.Tenant, appName: r.App,
		graphName: r.Graph, key: r.Key, seed: r.Seed, fp: r.Fingerprint,
		execSeconds: r.Seconds, ingress: r.Ingress, energy: r.Energy,
		cacheHit: r.Flag, ctx: context.Background(), done: make(chan struct{}),
	}
	if r.Error != "" || r.State == StateFailed { // a failed job always has an error
		js.err = errors.New(r.Error)
	}
	return js
}

// dispatch selects the next runnable job at clock value now: the
// highest-priority queued job whose backoff has elapsed, FIFO among equals.
// Queued jobs whose deadline already passed are shed on the way. It returns
// nil when nothing is ready; wait is then the delay until the earliest
// backoff expires (0 when the queue is empty).
func (m *machine) dispatch(now float64) (js *jobState, wait float64) {
	// Shed expired jobs first so they never occupy a worker.
	for i := 0; i < len(m.queue); {
		q := m.queue[i]
		expired := q.deadline > 0 && now > q.deadline
		if !expired && q.ctx != nil && q.ctx.Err() != nil {
			expired = true
		}
		if expired {
			m.retire(now, q, StateShed, "deadline")
			continue // retire shifted the queue; same index again
		}
		i++
	}
	var best *jobState
	minReady := math.Inf(1)
	for _, q := range m.queue {
		if q.readyAt > now {
			if q.readyAt < minReady {
				minReady = q.readyAt
			}
			continue
		}
		if best == nil || q.priority > best.priority ||
			(q.priority == best.priority && q.id < best.id) {
			best = q
		}
	}
	if best == nil {
		if math.IsInf(minReady, 1) {
			return nil, 0
		}
		return nil, minReady - now
	}
	m.removeQueued(best)
	best.state = StateRunning
	m.running++
	m.journalBest(Record{Kind: RecordStart, ID: best.id, Attempt: best.attempts})
	w := now - best.enqueuedAt
	best.queueWait += w
	m.emit(trace.Event{Kind: trace.KindQueue, Machine: -1, Step: best.id, Label: best.tenant, Seconds: w})
	return best, 0
}

// complete records a successful attempt finishing at clock value now: the
// result, the budget charges and their records, then the retirement.
func (m *machine) complete(now float64, js *jobState, jr workload.JobResult) {
	ts := m.tenant(js.tenant)
	js.result = jr.Exec
	js.execSeconds = jr.Exec.SimSeconds
	js.energy = jr.Exec.EnergyJoules
	js.ingress = jr.IngressSeconds
	js.cacheHit = jr.CacheHit
	m.retain(js)
	ts.spentSeconds += jr.IngressSeconds + jr.Exec.SimSeconds
	ts.spentJoules += jr.Exec.EnergyJoules
	m.running--
	// Complete before charge, always in that order: recovery derives the
	// missing charge from the complete record if the crash lands between
	// them, so a tenant is never double-charged at any journal offset.
	m.journalBest(Record{
		Kind: RecordComplete, ID: js.id, Attempt: js.attempts,
		Seconds: jr.Exec.SimSeconds, Ingress: jr.IngressSeconds,
		Energy: jr.Exec.EnergyJoules, Flag: jr.CacheHit,
	})
	m.journalBest(Record{
		Kind: RecordBudgetCharge, ID: js.id, Tenant: js.tenant,
		Seconds: jr.IngressSeconds + jr.Exec.SimSeconds, Energy: jr.Exec.EnergyJoules,
	})
	m.retire(now, js, StateDone, "")
}

// retain puts a completed job into the result window. The slot's previous
// occupant, the oldest retained job, loses its result and keeps its charges.
func (m *machine) retain(js *jobState) {
	if old := m.results[m.nextResult]; old != nil {
		old.result = nil
		m.counters.ResultsExpired++
	}
	m.results[m.nextResult] = js
	m.nextResult = (m.nextResult + 1) % len(m.results)
}

// fail records a failed attempt at clock value now. Retryable failures go
// back into the queue with capped exponential backoff and deterministic
// seeded jitter; exhausted (or cancelled) jobs become terminal and feed the
// tenant's circuit breaker.
func (m *machine) fail(now float64, js *jobState, err error, retryable bool) {
	m.running--
	js.attempts++
	js.err = err
	if retryable && js.attempts <= m.cfg.MaxRetries {
		backoff := m.backoff(js.id, js.attempts)
		js.state = StateQueued
		js.enqueuedAt = now
		js.readyAt = now + backoff
		m.queue = append(m.queue, js)
		m.tenant(js.tenant).queued++
		m.counters.Retries++
		m.journalBest(Record{Kind: RecordRetry, ID: js.id, Attempt: js.attempts, Seconds: backoff})
		m.emit(trace.Event{Kind: trace.KindRetry, Machine: -1, Step: js.id, Resume: js.attempts, Label: js.tenant, Seconds: backoff})
		return
	}
	m.retire(now, js, StateFailed, "")
}

// backoff returns the capped exponential backoff with deterministic jitter
// for a job's n-th failed attempt (n >= 1): base·2^(n−1), capped, scaled by a
// jitter factor in [0.5, 1.5) drawn from the service seed, the job id and the
// attempt — the same triple always yields the same delay, which keeps replays
// and chaos tests bit-reproducible (internal/rng, not math/rand).
func (m *machine) backoff(jobID, attempt int) float64 {
	d := m.cfg.BaseBackoff * math.Pow(2, float64(attempt-1))
	if d > m.cfg.MaxBackoff {
		d = m.cfg.MaxBackoff
	}
	u := float64(rng.Hash3(m.cfg.Seed, uint64(jobID), uint64(attempt))>>11) / (1 << 53)
	return d * (0.5 + u)
}

// cancelQueued retires every queued job canceled (service shutdown), in queue
// order.
func (m *machine) cancelQueued() {
	for len(m.queue) > 0 {
		m.retire(0, m.queue[0], StateCanceled, "")
	}
}

// idle reports no queued or running work.
func (m *machine) idle() bool { return len(m.queue) == 0 && m.running == 0 }

// JobStatus is a point-in-time snapshot of one job.
type JobStatus struct {
	ID       int    `json:"id"`
	Tenant   string `json:"tenant"`
	App      string `json:"app"`
	Graph    string `json:"graph"`
	Priority int    `json:"priority"`
	State    string `json:"state"`
	Attempts int    `json:"attempts"`
	// Key is the client-supplied idempotency key, if any.
	Key string `json:"idempotency_key,omitempty"`
	// QueueWaitSeconds accumulates the waits of every dispatch (clock units
	// of the driver: wall seconds live, simulated seconds in replay).
	QueueWaitSeconds float64 `json:"queue_wait_seconds"`
	// ExecSeconds / IngressSeconds / EnergyJoules are the simulated charges
	// of the successful attempt (zero otherwise).
	ExecSeconds    float64 `json:"exec_seconds"`
	IngressSeconds float64 `json:"ingress_seconds"`
	EnergyJoules   float64 `json:"energy_joules"`
	CacheHit       bool    `json:"cache_hit"`
	Error          string  `json:"error,omitempty"`
}

// status snapshots a job.
func (m *machine) status(js *jobState) JobStatus {
	st := JobStatus{
		ID:               js.id,
		Tenant:           js.tenant,
		App:              js.appName,
		Graph:            js.graphName,
		Priority:         js.priority,
		State:            js.state.String(),
		Attempts:         js.attempts,
		Key:              js.key,
		QueueWaitSeconds: js.queueWait,
		ExecSeconds:      js.execSeconds,
		IngressSeconds:   js.ingress,
		EnergyJoules:     js.energy,
		CacheHit:         js.cacheHit,
	}
	if js.err != nil {
		st.Error = js.err.Error()
	}
	return st
}

// list snapshots the jobs (optionally one tenant's) with ids above after,
// ascending: the first limit of them, or all when limit is not positive.
func (m *machine) list(tenant string, after, limit int) []JobStatus {
	page := make([]*jobState, 0, len(m.jobs))
	for _, js := range m.jobs {
		if js.id > after && (tenant == "" || js.tenant == tenant) {
			page = append(page, js)
		}
	}
	slices.SortFunc(page, func(a, b *jobState) int { return a.id - b.id })
	if limit > 0 && limit < len(page) {
		page = page[:limit]
	}
	out := make([]JobStatus, len(page))
	for i, js := range page {
		out[i] = m.status(js)
	}
	return out
}

// TenantUsage is one tenant's cumulative spend against its budget.
type TenantUsage struct {
	Tenant       Tenant  `json:"tenant"`
	SpentSeconds float64 `json:"spent_seconds"`
	SpentJoules  float64 `json:"spent_joules"`
	Queued       int     `json:"queued"`
	BreakerOpen  bool    `json:"breaker_open"`
}

// usage snapshots every tenant, sorted by name.
func (m *machine) usage() []TenantUsage {
	out := make([]TenantUsage, 0, len(m.tenants))
	for _, ts := range m.tenants {
		out = append(out, TenantUsage{
			Tenant:       ts.Tenant,
			SpentSeconds: ts.spentSeconds,
			SpentJoules:  ts.spentJoules,
			Queued:       ts.queued,
			BreakerOpen:  ts.breaker == breakerOpen,
		})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Tenant.Name < out[b].Tenant.Name })
	return out
}
