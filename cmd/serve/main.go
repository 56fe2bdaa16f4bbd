// Command serve exposes the multi-tenant job service over HTTP: clients
// submit graph-processing jobs against a simulated heterogeneous cluster and
// observe admission verdicts, retries, shedding and budgets — the control
// plane of a production deployment, backed by the same deterministic engines
// every experiment uses.
//
// Endpoints:
//
//	POST /jobs            {"tenant","app","graph"}        -> {"id": 7}
//	GET  /jobs/7                                          -> job status JSON
//	GET  /jobs?tenant=x&after=7&limit=100                 -> job list JSON
//	GET  /tenants                                         -> per-tenant usage
//	GET  /healthz                                         -> 200 "ok"
//	GET  /metrics                                         -> Prometheus text
//	GET  /debug/pprof/...                                 -> runtime profiles (only with -pprof)
//
// Usage:
//
//	serve -addr :8080 -cluster xeon:4:2.5,xeon:12:2.5 -scale 256 \
//	      -tenants gold:2,silver:1:120,bronze:0 -queue 32 -retries 3 \
//	      -journal /var/lib/proxygraph/jobs.journal -drain-timeout 10
//
// With -journal, every control-plane transition is written ahead to a
// checksummed append-only log and a restart recovers the previous
// incarnation's jobs, ids and tenant budgets (DESIGN.md §8); POST /jobs
// honours an Idempotency-Key header so resubmissions after a crash or client
// timeout never run the same work twice. SIGTERM/SIGINT drains in-flight
// jobs for -drain-timeout seconds before canceling what remains.
//
// The job table keeps every queued and running job and at least the last
// -queue+-workers finished ones. Each time that many more finished jobs have
// left this window, the journal is compacted to a snapshot and they are
// pruned: a pruned id answers 404 and its idempotency key is free again.
// GET /jobs pages the table in ascending id order: after is the last id of
// the previous page (default 0), limit the page size (default and cap
// service.MaxListPage); a malformed or negative value answers 400.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"proxygraph/internal/cluster"
	"proxygraph/internal/gen"
	"proxygraph/internal/graph"
	"proxygraph/internal/rng"
	"proxygraph/internal/service"
	"proxygraph/internal/trace"
	"proxygraph/internal/workload"

	"proxygraph/internal/apps"
)

// appConfig is everything main needs, assembled by buildConfig so flag
// validation is testable without binding sockets or generating graphs.
type appConfig struct {
	addr         string
	scale        int
	seed         uint64
	traceOut     string
	journalPath  string
	pprof        bool
	drainTimeout time.Duration
	svc          service.Config
}

// buildConfig parses and validates the command line. Invalid input — a bad
// listen address, a negative queue bound, an unwritable trace sink, a
// malformed tenant spec — fails here, loudly, before any resource is built.
func buildConfig(args []string) (*appConfig, error) {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", ":8080", "HTTP listen address")
		clusterSpec = fs.String("cluster", "xeon:4:2.5,xeon:12:2.5", "machines: catalog names or name:cores:freqGHz")
		scale       = fs.Int("scale", 256, "graph spec scale divisor")
		seed        = fs.Uint64("seed", 42, "service seed (backoff jitter, graph generation)")
		tenants     = fs.String("tenants", "gold:2,silver:1,bronze:0", "tenant spec: name:priority[:budget-sim-seconds]")
		queue       = fs.Int("queue", 64, "global queue bound")
		tenantQueue = fs.Int("tenant-queue", 0, "per-tenant queue bound (0 = global bound)")
		retries     = fs.Int("retries", 3, "retries per job")
		baseBackoff = fs.Float64("base-backoff", 0.05, "base retry backoff seconds")
		maxBackoff  = fs.Float64("max-backoff", 1, "backoff cap seconds")
		breaker     = fs.Int("breaker", 5, "circuit-breaker threshold in consecutive failures (0 disables)")
		cooldown    = fs.Float64("breaker-cooldown", 5, "breaker open interval seconds")
		workers     = fs.Int("workers", 4, "worker pool size")
		cacheSize   = fs.Int("cache-entries", 64, "placement cache entry bound (0 = unbounded)")
		cacheBytes  = fs.Int64("cache-bytes", 0, "placement cache byte bound, on each placement's footprint with every gather layout compiled (0 = unbounded)")
		charge      = fs.Bool("charge-ingress", true, "charge cold ingress makespans to jobs")
		traceOut    = fs.String("trace-out", "", "write a Chrome trace-event JSON here on shutdown")
		journal     = fs.String("journal", "", "write-ahead job journal path; enables crash-restart recovery (empty = in-memory only)")
		drain       = fs.Float64("drain-timeout", 10, "seconds to let queued/running jobs finish on SIGTERM/SIGINT before canceling them")
		profile     = fs.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ on the same listener")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	host, port, err := net.SplitHostPort(*addr)
	if err != nil {
		return nil, fmt.Errorf("serve: bad -addr %q: %v", *addr, err)
	}
	if p, err := strconv.Atoi(port); err != nil || p < 0 || p > 65535 {
		return nil, fmt.Errorf("serve: bad port %q in -addr", port)
	}
	_ = host
	if *scale < 1 {
		return nil, fmt.Errorf("serve: -scale must be positive, got %d", *scale)
	}
	cl, err := cluster.Parse(*clusterSpec)
	if err != nil {
		return nil, err
	}
	ts, err := parseTenants(*tenants)
	if err != nil {
		return nil, err
	}
	if *traceOut != "" {
		// Validate the sink now: discovering an unwritable path hours into a
		// run would lose the whole trace.
		f, err := os.OpenFile(*traceOut, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("serve: trace sink: %v", err)
		}
		f.Close()
	}
	if *drain < 0 {
		return nil, fmt.Errorf("serve: -drain-timeout must be non-negative, got %g", *drain)
	}
	if *journal != "" {
		// Validate writability without touching the contents — recovery and
		// truncation happen in newServer, this only catches an unwritable
		// path before the process commits to serving.
		f, err := os.OpenFile(*journal, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("serve: journal: %v", err)
		}
		f.Close()
	}

	cfg := &appConfig{
		addr:         *addr,
		scale:        *scale,
		seed:         *seed,
		traceOut:     *traceOut,
		journalPath:  *journal,
		pprof:        *profile,
		drainTimeout: time.Duration(*drain * float64(time.Second)),
		svc: service.Config{
			Cluster:          cl,
			Cache:            workload.NewBoundedPlacementCache(*cacheSize, *cacheBytes),
			ChargeIngress:    *charge,
			Tenants:          ts,
			QueueBound:       *queue,
			TenantQueueBound: *tenantQueue,
			MaxRetries:       *retries,
			BaseBackoff:      *baseBackoff,
			MaxBackoff:       *maxBackoff,
			BreakerThreshold: *breaker,
			BreakerCooldown:  *cooldown,
			Workers:          *workers,
			Seed:             *seed,
		},
	}
	// Surface service-level validation (negative bounds and durations, tenant
	// spec problems) at startup rather than from New deep in main.
	if err := cfg.svc.Validate(); err != nil {
		return nil, err
	}
	return cfg, nil
}

// parseTenants parses "name:priority[:budget-sim-seconds]" entries.
func parseTenants(spec string) ([]service.Tenant, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var out []service.Tenant
	for _, entry := range strings.Split(spec, ",") {
		parts := strings.Split(strings.TrimSpace(entry), ":")
		if len(parts) < 2 || len(parts) > 3 || parts[0] == "" {
			return nil, fmt.Errorf("serve: bad tenant entry %q (want name:priority[:budget])", entry)
		}
		prio, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, fmt.Errorf("serve: bad priority in %q: %v", entry, err)
		}
		t := service.Tenant{Name: parts[0], Priority: prio}
		if len(parts) == 3 {
			budget, err := strconv.ParseFloat(parts[2], 64)
			if err != nil || budget < 0 {
				return nil, fmt.Errorf("serve: bad budget in %q", entry)
			}
			t.Budget.SimSeconds = budget
		}
		out = append(out, t)
	}
	return out, nil
}

// server binds the service to HTTP handlers.
type server struct {
	svc     *service.Service
	reg     *trace.Registry
	graphs  map[string]*graph.Graph
	seeds   map[string]uint64
	journal service.Journal // nil without -journal
	// retryAfterBreaker is the Retry-After hint for breaker rejections.
	retryAfterBreaker int
	// pprof mounts the runtime profile handlers on the mux.
	pprof bool
	// scrape serialises /metrics, and exported holds each lifetime counter's
	// value as of the previous scrape: the service keeps totals, a registry
	// counter takes increments, so a scrape adds what the total grew by.
	// gcPauses does the same for each bucket of the runtime's GC pause
	// histogram.
	scrape   sync.Mutex
	exported map[string]uint64
	gcPauses []uint64
}

// newServer generates the Table II graph catalog at 1/scale and starts the
// service with an Observer folding every event into the registry. With a
// journal path configured it first recovers the previous incarnation's state:
// terminal jobs reappear with their status and budget charges, in-flight
// jobs re-enter the queue, and new job ids continue the journal sequence so
// status URLs stay valid across the restart.
func newServer(cfg *appConfig, extra trace.Collector) (*server, error) {
	reg := trace.NewRegistry()
	cfg.svc.Trace = trace.Multi(trace.NewObserver(reg), extra)

	graphs := make(map[string]*graph.Graph)
	seeds := make(map[string]uint64)
	for i, spec := range gen.RealGraphs() {
		g, err := gen.Generate(spec.Scale(cfg.scale), rng.Hash2(cfg.seed, uint64(i)))
		if err != nil {
			return nil, err
		}
		graphs[spec.Name] = g
		seeds[spec.Name] = rng.Hash2(cfg.seed^0x696e67, uint64(i))
	}

	var journal service.Journal
	if cfg.journalPath != "" {
		fj, rec, err := service.OpenFileJournal(cfg.journalPath)
		if err != nil {
			return nil, err
		}
		if rec.Err != nil {
			// A torn tail is the expected artifact of kill -9; it has already
			// been truncated away. Surface it for the operator's log.
			fmt.Fprintf(os.Stderr, "serve: journal tail discarded: %v\n", rec.Err)
		}
		journal = fj
		cfg.svc.Journal = fj
		cfg.svc.Recovery = rec
		cfg.svc.Resolve = func(appName, graphName string, seed uint64) (workload.Job, error) {
			a, err := apps.ByName(appName)
			if err != nil {
				return workload.Job{}, err
			}
			g, ok := graphs[graphName]
			if !ok {
				return workload.Job{}, fmt.Errorf("unknown graph %q", graphName)
			}
			return workload.Job{App: a, Graph: g, Seed: seed}, nil
		}
	}

	svc, err := service.New(cfg.svc)
	if err != nil {
		if journal != nil {
			journal.Close()
		}
		return nil, err
	}
	retryAfter := 1
	if cfg.svc.BreakerCooldown > float64(retryAfter) {
		retryAfter = int(cfg.svc.BreakerCooldown + 0.999)
	}
	return &server{svc: svc, reg: reg, graphs: graphs, seeds: seeds,
		journal: journal, retryAfterBreaker: retryAfter,
		pprof: cfg.pprof, exported: make(map[string]uint64)}, nil
}

// submitRequest is the POST /jobs payload.
type submitRequest struct {
	Tenant string `json:"tenant"`
	App    string `json:"app"`
	Graph  string `json:"graph"`
	// DeadlineSeconds, when positive, bounds the job's total lifetime: if it
	// has not completed within that window it is shed or failed. Zero means
	// no deadline; a negative value or one past time.Duration's range is a
	// 400.
	DeadlineSeconds float64 `json:"deadline_seconds"`
}

// maxSubmitBytes bounds a POST /jobs body. A submission is four short fields;
// 1 MiB is generous and keeps a hostile client from making the decoder buffer
// an unbounded value.
const maxSubmitBytes = 1 << 20

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes)).Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		httpError(w, status, fmt.Errorf("bad request body: %v", err))
		return
	}
	app, err := apps.ByName(req.App)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	g, ok := s.graphs[req.Graph]
	if !ok {
		httpError(w, http.StatusBadRequest, fmt.Errorf("unknown graph %q", req.Graph))
		return
	}
	// A deadline past what time.Duration holds (~292 years; 1e300 is valid
	// JSON) would wrap to a negative timeout and expire the job at submission.
	deadline := req.DeadlineSeconds * float64(time.Second)
	if req.DeadlineSeconds < 0 || deadline >= math.MaxInt64 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("deadline_seconds %g outside [0, %g]", req.DeadlineSeconds, math.MaxInt64/float64(time.Second)))
		return
	}
	// The job outlives the HTTP request — submission is asynchronous — so its
	// lifetime context is detached from r.Context(). A requested deadline
	// becomes a timeout; cancel releases its timer and is nil without one.
	ctx := context.Background()
	var cancel context.CancelFunc
	if req.DeadlineSeconds > 0 {
		ctx, cancel = context.WithTimeout(ctx, time.Duration(deadline))
	}
	// An Idempotency-Key header makes the POST safe to retry: a duplicate
	// submission (client timeout, proxy retry, resubmission after a crash)
	// returns the original job's id instead of running the work twice.
	key := r.Header.Get("Idempotency-Key")
	id, err := s.svc.SubmitKey(ctx, req.Tenant, key, workload.Job{App: app, Graph: g, Seed: s.seeds[req.Graph]})
	if err != nil {
		// No job holds a rejected submission's context: release its timer
		// now instead of leaving it armed until the deadline.
		if cancel != nil {
			cancel()
		}
		code := admissionStatus(err)
		// Backpressure responses tell shed clients when to come back: the
		// breaker cooldown for breaker rejections, a nominal second for
		// queue-bound and degraded/closed rejections.
		switch code {
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			retry := 1
			if errors.Is(err, service.ErrCircuitOpen) {
				retry = s.retryAfterBreaker
			}
			w.Header().Set("Retry-After", strconv.Itoa(retry))
		}
		httpError(w, code, err)
		return
	}
	if cancel != nil {
		s.releaseWhenDone(ctx, cancel, id)
	}
	writeJSON(w, http.StatusAccepted, map[string]int{"id": id})
}

// releaseWhenDone frees an accepted job's deadline timer as soon as the job is
// terminal, instead of leaving it armed until the deadline: the context must
// stay live for the job's whole run, and not a moment longer. The goroutine
// ends with the job or, at the latest, with the deadline itself.
func (s *server) releaseWhenDone(ctx context.Context, cancel context.CancelFunc, id int) {
	go func() {
		// Either way out — terminal job, expired deadline — the timer goes.
		_, _ = s.svc.Wait(ctx, id)
		cancel()
	}()
}

// admissionStatus maps the typed admission errors onto HTTP semantics:
// overload and an open breaker are backpressure (429), an exhausted budget is
// a hard client-side stop (403), key reuse for different work is a conflict
// (409), and a closed or degraded service is 503.
func admissionStatus(err error) int {
	switch {
	case errors.Is(err, service.ErrOverloaded), errors.Is(err, service.ErrCircuitOpen):
		return http.StatusTooManyRequests
	case errors.Is(err, service.ErrBudgetExhausted):
		return http.StatusForbidden
	case errors.Is(err, service.ErrKeyConflict):
		return http.StatusConflict
	case errors.Is(err, service.ErrClosed), errors.Is(err, service.ErrDegraded):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func (s *server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		s.handleSubmit(w, r)
		return
	}
	if id := strings.TrimPrefix(r.URL.Path, "/jobs/"); id != "" && id != r.URL.Path {
		n, err := strconv.Atoi(id)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad job id %q", id))
			return
		}
		st, err := s.svc.Status(n)
		if err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
		return
	}
	q := r.URL.Query()
	var page [2]int // after, limit
	for i, name := range []string{"after", "limit"} {
		if v := q.Get(name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				httpError(w, http.StatusBadRequest, fmt.Errorf("bad %s %q: want a non-negative integer", name, v))
				return
			}
			page[i] = n
		}
	}
	writeJSON(w, http.StatusOK, s.svc.List(q.Get("tenant"), page[0], page[1]))
}

func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	// Fold the service's own state into the registry alongside the
	// event-driven series the Observer maintains: lifetime totals as
	// counters, point-in-time state as gauges.
	s.scrape.Lock()
	c := s.svc.Counters()
	s.exportCounter("proxygraph_jobs_completed", "jobs completed", c.Completed)
	s.exportCounter("proxygraph_jobs_failed", "jobs terminally failed", c.Failed)
	s.exportCounter("proxygraph_jobs_submitted", "submissions", c.Submitted)
	s.exportCounter("proxygraph_jobs_deduped", "submissions answered by idempotency key", c.Deduped)
	s.exportCounter("proxygraph_journal_appends", "journal records made durable", c.JournalAppends)
	s.exportCounter("proxygraph_journal_errors", "journal write failures", c.JournalErrors)
	s.exportCounter("proxygraph_jobs_recovered_done", "terminal jobs rebuilt from the journal at startup", c.RecoveredDone)
	s.exportCounter("proxygraph_jobs_recovered_requeued", "in-flight jobs re-enqueued from the journal at startup", c.RecoveredRequeued)
	s.exportCounter("proxygraph_job_results_expired", "done jobs whose result left the service's retention window", c.ResultsExpired)
	s.exportCounter("proxygraph_journal_compactions", "journal snapshot-and-truncate compactions", c.JournalCompactions)
	s.exportCounter("proxygraph_job_tombstones_pruned", "finished jobs pruned from the job table", c.TombstonesPruned)
	// The process's own footprint: a plateauing live heap is what the
	// result window promises (DESIGN.md §7).
	rt := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/sched/goroutines:goroutines"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(rt)
	s.reg.Gauge("proxygraph_go_heap_live_bytes", "heap bytes marked live by the last garbage collection").Set(float64(rt[0].Value.Uint64()))
	s.reg.Gauge("proxygraph_go_goroutines", "live goroutines").Set(float64(rt[1].Value.Uint64()))
	s.exportCounter("proxygraph_go_gc_cycles", "completed garbage collection cycles", rt[2].Value.Uint64())
	s.exportGCPauses()
	degraded, _ := s.svc.Degraded()
	degVal := 0.0
	if degraded {
		degVal = 1
	}
	s.reg.Gauge("proxygraph_degraded", "1 while the job service is in degraded mode.").Set(degVal)
	if stats := s.svc.CacheStats(); stats != nil {
		s.exportCounter("proxygraph_placement_cache_hits", "placement cache hits", stats.Hits)
		s.exportCounter("proxygraph_placement_cache_misses", "placement cache misses", stats.Misses)
		s.exportCounter("proxygraph_placement_cache_evictions", "placement cache evictions", stats.Evictions)
		s.reg.Gauge("proxygraph_placement_cache_entries", "placement cache entries").Set(float64(stats.Entries))
		s.reg.Gauge("proxygraph_placement_cache_bytes", "upper bound on the bytes the cached placements hold with every gather layout compiled").Set(float64(stats.Bytes))
	}
	s.scrape.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := s.reg.WritePrometheus(w); err != nil {
		httpError(w, http.StatusInternalServerError, err)
	}
}

// exportCounter brings the registry counter name up to total, a lifetime
// count the service maintains. The caller holds s.scrape.
func (s *server) exportCounter(name, help string, total uint64) {
	c := s.reg.Counter(name, help)
	if last := s.exported[name]; total > last {
		c.Add(float64(total - last))
		s.exported[name] = total
	}
}

// exportGCPauses brings the histogram proxygraph_go_gc_pause_seconds up to
// the runtime's /gc/pauses:seconds, a lifetime histogram of stop-the-world
// pauses in much finer buckets. What each runtime bucket grew by since the
// previous scrape lands in the first exported bucket whose bound is at or
// above the runtime bucket's upper edge, so no pause is reported shorter
// than it was. The runtime keeps no sum; each pause adds its runtime
// bucket's lower edge, so _sum is a lower bound. The caller holds s.scrape.
func (s *server) exportGCPauses() {
	bounds := []float64{1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1}
	h := s.reg.Histogram("proxygraph_go_gc_pause_seconds", "garbage collection stop-the-world pauses", bounds)
	rt := []metrics.Sample{{Name: "/gc/pauses:seconds"}}
	metrics.Read(rt)
	if rt[0].Value.Kind() != metrics.KindFloat64Histogram {
		return
	}
	pauses := rt[0].Value.Float64Histogram()
	if s.gcPauses == nil {
		s.gcPauses = make([]uint64, len(pauses.Counts))
	}
	counts := make([]uint64, len(bounds)+1)
	sum := 0.0
	for k, total := range pauses.Counts {
		grew := total - s.gcPauses[k]
		if grew == 0 {
			continue
		}
		s.gcPauses[k] = total
		i, _ := slices.BinarySearch(bounds, pauses.Buckets[k+1])
		counts[i] += grew
		if lo := pauses.Buckets[k]; lo > 0 {
			sum += float64(grew) * lo
		}
	}
	h.AddCounts(counts, sum)
}

func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/jobs", s.handleJobs)
	mux.HandleFunc("/jobs/", s.handleJobs)
	mux.HandleFunc("/tenants", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, s.svc.Usage())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		if !s.svc.Healthy() {
			httpError(w, http.StatusServiceUnavailable, errors.New("closed"))
			return
		}
		if degraded, err := s.svc.Degraded(); degraded {
			// Degraded mode sheds new work; taking the instance out of LB
			// rotation is exactly what a 503 here does. Reads still serve.
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusServiceUnavailable, fmt.Errorf("degraded: %v", err))
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", s.handleMetrics)
	if s.pprof {
		// Index serves every named profile below the prefix; the four
		// handlers that are not runtime/pprof profiles need their own routes.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func main() {
	cfg, err := buildConfig(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var rec *trace.Recorder
	var collector trace.Collector
	if cfg.traceOut != "" {
		rec = trace.NewRecorder()
		collector = rec
	}
	srv, err := newServer(cfg, collector)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// Every request is a small JSON exchange, so a connection slow to send
	// its headers or body, or idle for minutes, is dropped rather than held.
	// No WriteTimeout: responses go out at the client's pace and no handler
	// waits on a job.
	httpSrv := &http.Server{
		Addr:              cfg.addr,
		Handler:           srv.mux(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go func() {
		c := srv.svc.Counters()
		fmt.Printf("serving on %s (%d graphs, %d tenants, recovered %d done + %d requeued)\n",
			cfg.addr, len(srv.graphs), len(cfg.svc.Tenants), c.RecoveredDone, c.RecoveredRequeued)
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop

	// Graceful shutdown: stop accepting HTTP, then give queued and running
	// jobs -drain-timeout to finish. Queued work still pending at the
	// deadline is canceled by Close — and journaled as canceled, so the next
	// incarnation reports those jobs canceled instead of re-running them
	// (unlike a crash, where in-flight work is re-enqueued at recovery).
	fmt.Println("shutting down: draining jobs")
	ctx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	_ = httpSrv.Shutdown(ctx)
	if err := srv.svc.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "serve: drain timed out after %s, canceling pending jobs\n", cfg.drainTimeout)
	}
	srv.svc.Close()
	if srv.journal != nil {
		_ = srv.journal.Close()
	}
	if rec != nil {
		f, err := os.Create(cfg.traceOut)
		if err == nil {
			_ = trace.WriteChromeTrace(f, rec.Events)
			f.Close()
			fmt.Printf("wrote trace to %s\n", cfg.traceOut)
		}
	}
}
