// Package trace is the simulator's structured observability layer: engines
// emit typed execution events into a Collector, and this package turns the
// stream into Chrome trace JSON (chrome.go), Prometheus text exposition
// (registry.go, observer.go) or a straggler summary, Gantt chart and
// straggler shares (summary.go). The stream is a run's only timeline record.
//
// The event stream is part of the engine's determinism contract: for the same
// program, placement, cluster and options, engine.RunReference and engine.Run
// emit identical event sequences — every quantity in an
// Event is one the equivalence suites already pin bit-identically across
// engines (step counters, per-machine charged times, frontier sizes, fault
// protocol decisions). The differential test in internal/apps locks this
// down.
//
// The package depends only on the standard library so every layer of the
// simulator can import it without cycles.
package trace

import "sync"

// Kind discriminates event types.
type Kind uint8

const (
	// KindStepBegin opens a superstep (or async round): Step, Frontier and
	// Label ("sync" or "async") are set.
	KindStepBegin Kind = iota
	// KindMachineStep reports one machine's charged time for the step:
	// Machine, Seconds (the max of compute and comm the accountant charged),
	// the per-phase attribution (GatherSeconds/ApplySeconds/BookSeconds and
	// the overlapped CommSeconds) and the raw step counters.
	KindMachineStep
	// KindStepEnd closes the step; for sync steps Seconds is the barrier time
	// (the slowest machine) by which the makespan advanced.
	KindStepEnd
	// KindStall is a full-cluster pause (Label: "migrate", "checkpoint",
	// "recover") of Seconds.
	KindStall
	// KindFault reports that the fault injector perturbed the cluster for
	// this step (straggler throttling or network degradation).
	KindFault
	// KindCheckpoint is a superstep checkpoint write: Step is the superstep
	// the checkpoint resumes at, Bytes its charged footprint, Seconds the
	// storage stall charged for it.
	KindCheckpoint
	// KindCrash is a permanent machine failure at the barrier ending Step.
	KindCrash
	// KindRecovery reports the recovery decision after a crash: Label is
	// "checkpoint" or "restart", Resume the superstep execution rolls back
	// to, Moved the edges re-shipped to survivors, Seconds the stall charged.
	KindRecovery
	// KindRebalance is a dynamic rebalancing migration: Moved edges changed
	// machines (the migration stall follows as a KindStall "migrate" event).
	KindRebalance
	// KindIngress reports a job's partitioning/finalization outcome in a
	// workload session: Label is "hit" (placement served from the session's
	// placement cache) or "miss" (ingress ran), Seconds the simulated ingress
	// makespan charged to the session clock (zero for hits, and for sessions
	// that do not charge ingress).
	KindIngress
	// KindAdmit is the job service's admission verdict for one submission:
	// Label is "admit" or "dedup", with Step the job id, or one of
	// "reject-overload", "reject-breaker", "reject-budget",
	// "reject-degraded" and "reject-key-conflict", with no job.
	KindAdmit
	// KindQueue reports a job leaving the service queue for a worker: Step is
	// the job id, Label the tenant, Seconds the time it waited since its last
	// enqueue (wall seconds in the live service, simulated seconds in a
	// replay).
	KindQueue
	// KindRetry is a failed attempt being rescheduled: Step is the job id,
	// Resume the attempt number that failed (1-based), Label the tenant,
	// Seconds the capped jittered backoff before the job becomes runnable.
	KindRetry
	// KindShed is a job evicted from the queue without running: Step is the
	// job id, Label the reason ("priority" for load shedding in favour of a
	// higher-priority arrival, "deadline" for jobs whose deadline expired
	// while queued).
	KindShed
	// KindBreaker is a circuit-breaker transition for one tenant: Label is
	// "trip", "half-open" or "close".
	KindBreaker
	// KindJournal is write-ahead journal activity in the job service: Label
	// is a record kind ("submit", "admit", "start", "retry", "complete",
	// "fail", "shed", "budget-charge") for appends, "error" for a failed
	// write, or "recover" for the startup replay (Step then carries the
	// number of records replayed).
	KindJournal
	// KindDegraded marks the service flipping into degraded (read-only /
	// shedding) mode after a journal write failure: Label names the cause.
	KindDegraded
)

var kindNames = [...]string{
	KindStepBegin:   "step-begin",
	KindMachineStep: "machine-step",
	KindStepEnd:     "step-end",
	KindStall:       "stall",
	KindFault:       "fault",
	KindCheckpoint:  "checkpoint",
	KindCrash:       "crash",
	KindRecovery:    "recovery",
	KindRebalance:   "rebalance",
	KindIngress:     "ingress",
	KindAdmit:       "admit",
	KindQueue:       "queue",
	KindRetry:       "retry",
	KindShed:        "shed",
	KindBreaker:     "breaker",
	KindJournal:     "journal",
	KindDegraded:    "degraded",
}

// String names the kind for logs and exporters.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one typed execution event. It is a flat comparable struct — no
// pointers, no slices — so collectors can compare, hash and store events
// without allocation, and the cross-engine differential test can use ==.
// Which fields are meaningful depends on Kind (see the Kind constants);
// unused fields are zero. Machine is -1 for cluster-wide events.
type Event struct {
	Kind    Kind
	Step    int
	Machine int
	// Label qualifies the kind: step kind ("sync"/"async"), stall kind,
	// recovery policy.
	Label string
	// Frontier is the active-vertex count driving the step (KindStepBegin).
	Frontier int
	// Resume is the superstep a recovery rolls back to (KindRecovery).
	Resume int
	// Seconds is the event's charged simulated time.
	Seconds float64
	// GatherSeconds/ApplySeconds/BookSeconds attribute a machine's compute
	// time to the gather, apply and bookkeeping phases; CommSeconds is the
	// communication time overlapped with them (KindMachineStep).
	GatherSeconds, ApplySeconds, BookSeconds, CommSeconds float64
	// Raw step counters (KindMachineStep), all of engine.StepCounters.
	Gathers, Applies, Vertices, MaxUnit, PartialsOut, UpdatesOut float64
	// Bytes is a data footprint (checkpoint encoding size).
	Bytes int64
	// Moved counts edges that changed machines (rebalance, recovery).
	Moved int64
}

// Collector receives engine events. Implementations must not retain pointers
// into engine state (events are flat values, so there are none to retain) and
// must tolerate being called from a single goroutine per run. A nil Collector
// in engine.Options disables tracing with zero allocation and zero behaviour
// change.
type Collector interface {
	Event(Event)
}

// Recorder is the simplest Collector: it appends every event to Events in
// arrival order. The zero value is ready to use.
type Recorder struct {
	Events []Event
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Event implements Collector.
func (r *Recorder) Event(e Event) { r.Events = append(r.Events, e) }

// Reset discards the recorded events, keeping the backing array.
func (r *Recorder) Reset() { r.Events = r.Events[:0] }

// synchronized serializes Event calls with a mutex.
type synchronized struct {
	mu sync.Mutex
	c  Collector
}

func (s *synchronized) Event(e Event) {
	s.mu.Lock()
	s.c.Event(e)
	s.mu.Unlock()
}

// Synchronized wraps a collector so it may be shared by concurrent emitters —
// the Collector contract only requires tolerance of a single goroutine per
// run, which the multi-worker job service violates. A nil collector stays
// nil, so wrapping preserves "tracing disabled". Event order across emitters
// is arrival order under the lock and therefore not deterministic; consumers
// needing a reproducible stream must run single-threaded (service.Replay).
func Synchronized(c Collector) Collector {
	if c == nil {
		return nil
	}
	return &synchronized{c: c}
}

// multi fans events out to several collectors.
type multi []Collector

func (m multi) Event(e Event) {
	for _, c := range m {
		c.Event(e)
	}
}

// Multi combines collectors into one; nil entries are dropped. It returns nil
// when none remain, so Multi(nil, nil) still means "tracing disabled".
func Multi(cs ...Collector) Collector {
	var out multi
	for _, c := range cs {
		if c != nil {
			out = append(out, c)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}
