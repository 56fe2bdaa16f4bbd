package service

import (
	"context"
	"fmt"
	"sync"
	"time"

	"proxygraph/internal/apps"
	"proxygraph/internal/cluster"
	"proxygraph/internal/core"
	"proxygraph/internal/engine"
	"proxygraph/internal/trace"
	"proxygraph/internal/workload"
)

// Config parameterizes a Service (and a Replay — both drivers share the
// policy fields). Zero values take the documented defaults; negative bounds
// are configuration errors so a mistyped flag fails loudly instead of
// silently disabling admission control.
type Config struct {
	// Cluster receives the jobs (required).
	Cluster *cluster.Cluster
	// Cache, when non-nil, memoizes placements across jobs and tenants.
	// Long-running services should bound it (NewBoundedPlacementCache).
	Cache *workload.PlacementCache
	// ChargeIngress adds cold ingress makespans to job accounting.
	ChargeIngress bool
	// Fault, when non-nil, applies one fault schedule to every attempt of a
	// synchronous app (see engine.FaultConfig and apps.Synchronous).
	Fault *engine.FaultConfig
	// Flaky, when non-nil, injects deterministic transient attempt errors
	// that retries overcome.
	Flaky *Flaky
	// Trace, when non-nil, receives both control-plane events (admission,
	// queue waits, retries, shedding, breaker transitions) and the engines'
	// execution events. The service wraps it with trace.Synchronized, so any
	// single-goroutine collector is safe.
	Trace trace.Collector
	// Tenants declares the known service classes. Unknown tenant names are
	// accepted with priority 0 and no budget.
	Tenants []Tenant
	// QueueBound caps the total queued jobs (default 64). At the bound, an
	// arrival either sheds a strictly lower-priority queued job or is
	// rejected with ErrOverloaded.
	QueueBound int
	// TenantQueueBound caps one tenant's queued jobs (default QueueBound).
	TenantQueueBound int
	// MaxRetries is the failed attempts retried per job (default 0 — the
	// first failure is terminal).
	MaxRetries int
	// BaseBackoff and MaxBackoff shape the retry delay in seconds:
	// min(MaxBackoff, BaseBackoff·2^(attempt−1)) scaled by deterministic
	// jitter in [0.5, 1.5). Defaults 0.05 and 1.
	BaseBackoff, MaxBackoff float64
	// BreakerThreshold trips a tenant's circuit breaker after that many
	// consecutive terminal failures (0 disables the breaker).
	BreakerThreshold int
	// BreakerCooldown is the open interval in seconds before the breaker
	// half-opens for a probe (default 1).
	BreakerCooldown float64
	// Workers sizes the worker pool — goroutines live, simulated executors
	// in a replay (default 4).
	Workers int
	// Seed drives the backoff jitter (and nothing else).
	Seed uint64
	// Journal, when non-nil, receives a durable write-ahead record of every
	// control-plane transition. Admission is strict: a submission whose
	// submit/admit records cannot be written is rejected and the service
	// flips to degraded mode. Job ids become the journal sequence numbers of
	// their submit records, so they stay stable across crash and recovery.
	// Use OpenFileJournal for a real file, NewMemJournal for tests.
	Journal Journal
	// Recovery, when non-nil, is a decoded journal (from Recover or
	// OpenFileJournal) replayed into the state machine before the workers
	// start: terminal jobs are rebuilt as tombstones (status and budget
	// charges, no result), in-flight and queued jobs are re-enqueued.
	Recovery *Recovery
	// Resolve maps a recovered submit record's (app, graph, seed) identity
	// back to a runnable workload.Job so re-enqueued jobs can execute.
	// Recovered in-flight jobs that fail to resolve (nil Resolve, unknown
	// app/graph) are marked failed rather than silently dropped; terminal
	// jobs never need resolving.
	Resolve func(app, graphName string, seed uint64) (workload.Job, error)
}

// Validate reports the configuration errors normalize would: a missing
// cluster, negative bounds or durations, duplicate or unnamed tenants. It
// works on a copy, so the receiver's zero fields are not defaulted.
func (c Config) Validate() error { return c.normalize() }

// normalize validates bounds and applies defaults in place.
func (c *Config) normalize() error {
	if c.Cluster == nil {
		return fmt.Errorf("service: config needs a cluster")
	}
	// A slice, not a map, so the first negative bound in declaration order
	// is the one named.
	for _, b := range []struct {
		name string
		v    int
	}{
		{"queue bound", c.QueueBound}, {"tenant queue bound", c.TenantQueueBound},
		{"max retries", c.MaxRetries}, {"breaker threshold", c.BreakerThreshold},
		{"workers", c.Workers},
	} {
		if b.v < 0 {
			return fmt.Errorf("service: negative %s (%d)", b.name, b.v)
		}
	}
	if c.BaseBackoff < 0 || c.MaxBackoff < 0 || c.BreakerCooldown < 0 {
		return fmt.Errorf("service: negative duration in config")
	}
	if c.QueueBound == 0 {
		c.QueueBound = 64
	}
	if c.TenantQueueBound == 0 {
		c.TenantQueueBound = c.QueueBound
	}
	if c.BaseBackoff == 0 {
		c.BaseBackoff = 0.05
	}
	if c.MaxBackoff == 0 {
		c.MaxBackoff = 1
	}
	if c.BreakerCooldown == 0 {
		c.BreakerCooldown = 1
	}
	if c.Workers == 0 {
		c.Workers = 4
	}
	seen := map[string]bool{}
	for _, t := range c.Tenants {
		if t.Name == "" {
			return fmt.Errorf("service: tenant with empty name")
		}
		if seen[t.Name] {
			return fmt.Errorf("service: duplicate tenant %q", t.Name)
		}
		seen[t.Name] = true
	}
	return nil
}

// Service is the live concurrent driver: a worker pool pulling from the
// machine's queues on the wall clock. Submit never blocks on execution — it
// returns an admission verdict immediately — and every policy decision is the
// machine's, so a Replay with the same Config makes the same decisions in
// simulated time.
type Service struct {
	cfg     Config
	session *workload.Session
	pool    *core.Pool
	tr      trace.Collector

	mu     sync.Mutex
	cond   *sync.Cond
	m      *machine
	closed bool
	wg     sync.WaitGroup
	start  time.Time
}

// New builds the CCR pool, starts cfg.Workers workers and returns the running
// service. Close releases it.
func New(cfg Config) (*Service, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	pool, err := core.BuildPool(cfg.Cluster, apps.WithExtensions(), core.NewThreadCount())
	if err != nil {
		return nil, err
	}
	// One synchronized collector serves both the machine (under s.mu) and
	// the engines (concurrent across workers).
	tr := trace.Synchronized(cfg.Trace)
	cfg.Trace = tr
	s := &Service{
		cfg: cfg,
		session: &workload.Session{
			Cluster:       cfg.Cluster,
			Cache:         cfg.Cache,
			ChargeIngress: cfg.ChargeIngress,
		},
		pool:  pool,
		tr:    tr,
		m:     newMachine(cfg),
		start: time.Now(),
	}
	s.cond = sync.NewCond(&s.mu)
	// Replay the recovered journal into the machine before any worker can
	// observe the queue: recovered in-flight jobs are runnable the moment the
	// pool starts.
	if cfg.Recovery != nil {
		s.m.restore(cfg.Recovery.Records, cfg.Resolve)
		s.m.emit(trace.Event{Kind: trace.KindJournal, Machine: -1,
			Step: len(cfg.Recovery.Records), Label: "recover"})
		s.m.compact()
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// now is the service clock: wall seconds since start.
func (s *Service) now() float64 { return time.Since(s.start).Seconds() }

// Submit runs the admission pipeline and returns the admitted job's id. The
// context governs the job's whole lifetime: cancellation or an expired
// deadline sheds it from the queue, or fails it between attempts. Rejections
// return a typed error (ErrOverloaded, ErrCircuitOpen, ErrBudgetExhausted,
// ErrClosed) without creating a job.
func (s *Service) Submit(ctx context.Context, tenant string, job workload.Job) (int, error) {
	return s.SubmitKey(ctx, tenant, "", job)
}

// SubmitKey is Submit with a client-supplied idempotency key. A non-empty key
// makes the submission safe to retry: resubmitting the same job with the same
// key — after a client timeout, an HTTP retry, or a service crash and
// recovery — returns the original job's id instead of executing and charging
// it twice. Reusing a key for different work fails with ErrKeyConflict.
func (s *Service) SubmitKey(ctx context.Context, tenant, key string, job workload.Job) (int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	js, dup, err := s.m.submit(s.now(), tenant, key, job, ctx, 0)
	s.m.compact() // admission may have shed a queued job
	if err != nil {
		return 0, err
	}
	if !dup {
		s.cond.Broadcast()
	}
	return js.id, nil
}

// Degraded reports whether the service is in degraded mode (a journal write
// failed, so new submissions are rejected while admitted work drains) and the
// error that caused it.
func (s *Service) Degraded() (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.degraded, s.m.degradedErr
}

// worker pulls dispatchable jobs until the service closes. Backoff and
// context deadlines are wall-clock here: timers re-broadcast the condition
// after first taking the mutex, which guarantees the waiting worker has
// already released it into Wait — no lost wakeups.
func (s *Service) worker() {
	defer s.wg.Done()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		js, wait := s.m.dispatch(s.now())
		if js != nil {
			s.mu.Unlock()
			jr, err := s.runAttempt(js)
			s.mu.Lock()
			if err == nil {
				s.m.complete(s.now(), js, jr)
			} else {
				// A closing service stops retrying; context errors are
				// terminal because the submitter gave up.
				retryable := !s.closed && js.ctx.Err() == nil
				s.m.fail(s.now(), js, err, retryable)
				if js.state == StateQueued {
					s.wakeAfter(js.readyAt - s.now())
				}
			}
			s.m.compact()
			s.cond.Broadcast()
			continue
		}
		if s.closed {
			return
		}
		if wait > 0 {
			s.wakeAfter(wait)
		}
		s.cond.Wait()
	}
}

// runAttempt executes one attempt outside the lock.
func (s *Service) runAttempt(js *jobState) (workload.JobResult, error) {
	if err := js.ctx.Err(); err != nil {
		return workload.JobResult{}, err
	}
	return attempt(&s.cfg, s.session, s.pool, js, s.tr)
}

// attempt runs one attempt of js: an injected Flaky error, else the job with
// cfg.Fault only on a synchronous app (the others have no supersteps to fault).
func attempt(cfg *Config, session *workload.Session, pool *core.Pool, js *jobState, tc trace.Collector) (workload.JobResult, error) {
	if err := cfg.Flaky.Err(js.id, js.attempts); err != nil {
		return workload.JobResult{}, err
	}
	opts := engine.Options{Trace: tc}
	if apps.Synchronous(js.job.App) {
		opts.Fault = cfg.Fault
	}
	return session.RunJob(pool, js.job, opts)
}

// wakeAfter re-broadcasts the condition once d seconds elapse (with a small
// margin so the sleeper's readyAt has definitely passed). The callback takes
// and releases the mutex before broadcasting: a worker that computed the wait
// still holds the mutex until cond.Wait releases it, so the broadcast cannot
// slip into that window and be lost.
func (s *Service) wakeAfter(d float64) {
	if d < 0 {
		d = 0
	}
	time.AfterFunc(time.Duration(d*float64(time.Second))+time.Millisecond, func() {
		s.mu.Lock()
		s.mu.Unlock() //nolint:staticcheck // empty section orders the broadcast after Wait
		s.cond.Broadcast()
	})
}

// Status snapshots one job.
func (s *Service) Status(id int) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	js, ok := s.m.jobs[id]
	if !ok {
		return JobStatus{}, fmt.Errorf("%w (%d)", ErrUnknownJob, id)
	}
	return s.m.status(js), nil
}

// Result returns a completed job's engine result (nil until StateDone). The
// service holds the results of its last QueueBound+Workers completions only:
// for an older done job, and for one recovered from the journal, Result
// returns ErrResultExpired while Status keeps reporting the job's charges —
// until compaction prunes the job and both report ErrUnknownJob.
func (s *Service) Result(id int) (*engine.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	js, ok := s.m.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w (%d)", ErrUnknownJob, id)
	}
	if js.state == StateDone && js.result == nil {
		return nil, fmt.Errorf("%w (%d)", ErrResultExpired, id)
	}
	return js.result, nil
}

// Wait blocks until the job reaches a terminal state (or ctx expires) and
// returns its final status.
func (s *Service) Wait(ctx context.Context, id int) (JobStatus, error) {
	s.mu.Lock()
	js, ok := s.m.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, fmt.Errorf("%w (%d)", ErrUnknownJob, id)
	}
	select {
	case <-js.done:
	case <-ctx.Done():
		return JobStatus{}, ctx.Err()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.status(js), nil
}

// MaxListPage caps a List page, and is the page size when limit is not
// positive.
const MaxListPage = 1000

// List snapshots one page of the job table (or of one tenant's jobs): the
// jobs with ids above after, in ascending id order, at most limit of them —
// MaxListPage when limit is not positive or exceeds it. A client pages by
// passing the last id it got as the next after.
func (s *Service) List(tenant string, after, limit int) []JobStatus {
	if limit <= 0 || limit > MaxListPage {
		limit = MaxListPage
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.list(tenant, after, limit)
}

// Counters snapshots the control-plane counters.
func (s *Service) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.counters
}

// Usage snapshots every tenant's spend and breaker state.
func (s *Service) Usage() []TenantUsage {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.usage()
}

// CacheStats snapshots the shared placement cache, or nil when the service
// runs uncached.
func (s *Service) CacheStats() *workload.CacheStats {
	if s.cfg.Cache == nil {
		return nil
	}
	stats := s.cfg.Cache.Stats()
	return &stats
}

// Healthy reports whether the service accepts submissions.
func (s *Service) Healthy() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.closed
}

// Drain blocks until no job is queued or running (retries included), or ctx
// expires.
func (s *Service) Drain(ctx context.Context) error {
	for {
		s.mu.Lock()
		idle := s.m.idle()
		s.mu.Unlock()
		if idle {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// Close stops admission, cancels every queued job, waits for running
// attempts to finish and releases the workers. Close is idempotent.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.m.cancelQueued()
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}
