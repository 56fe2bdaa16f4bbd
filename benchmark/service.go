package main

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"proxygraph/internal/apps"
	"proxygraph/internal/cluster"
	"proxygraph/internal/core"
	"proxygraph/internal/engine"
	"proxygraph/internal/graph"
	"proxygraph/internal/service"
	"proxygraph/internal/workload"
)

const (
	// batchJobs is one cycle of service_steady: 64 jobs pushed through
	// Submit → Wait by svcClients closed-loop clients into svcWorkers
	// workers. The batch is served, and timed, as batchRounds consecutive
	// rounds of 16 jobs: one 60 ms unit needs both processors quiet for 60 ms
	// to show its floor, and on the reference host its floor moved 6.8 %
	// between runs where the serial workloads' sums of 8–14 short units
	// moved 2–4 %.
	batchJobs   = 64
	batchRounds = 4
	svcClients  = 2
	svcWorkers  = 2
	// generationBatches is how many batches one service instance serves
	// before the harness replaces it. The service's job table never forgets
	// a job or its result, so an instance serving the whole run would make
	// live heap, not the control plane, what the run measures.
	generationBatches = 50
	tenant            = "bench"
)

// svcClass is one (application, graph) job of the service mix.
type svcClass struct {
	class string
	job   workload.Job
	// want is the class's outcome from a direct Session.RunJob; every service
	// result is compared with it.
	want outcome
}

// slotRecord is what a client notes about one job of a batch.
type slotRecord struct {
	id                       int
	submit0, submit1, doneNs int64
	status                   service.JobStatus
	err                      error
}

// svcLayers are the service's own layer measurements, taken only in a traced
// pass.
type svcLayers struct {
	submitUs, submitToDoneMs, queueWaitMs []float64
	submitToDoneByClass                   map[string][]float64
	directByClass                         map[string][]float64
	recoverMsPer1k                        []float64
	journalRecords, journalBytes, jobs    uint64
	rejected, shed                        uint64
}

// svc is the service_steady workload, set up and warm.
type svc struct {
	cl      *cluster.Cluster
	graphs  []*graph.Graph
	classes []svcClass
	// batch maps each of the batchJobs slots to a class, in a seeded order
	// that every batch repeats.
	batch []int
	cache *workload.PlacementCache
	// sess and pool run a class directly, without the service: the reference
	// results and the direct-run floors.
	sess *workload.Session
	pool *core.Pool

	cur     *service.Service
	journal *service.MemJournal
	served  int // batches the current instance has served
	slots   []slotRecord
	epoch   time.Time
	layers  *svcLayers

	generateMs, buildPoolMs float64
}

func newService(seed uint64) (*svc, error) {
	v := &svc{slots: make([]slotRecord, batchJobs), epoch: time.Now()}
	var err error
	if v.cl, err = newCluster(); err != nil {
		return nil, err
	}
	start := time.Now()
	if v.graphs, err = generateGraphs(serviceSteady); err != nil {
		return nil, err
	}
	v.generateMs = msSince(start)
	seeds := ingressSeeds(seed, len(v.graphs))
	var poolApps []apps.App
	for gi, g := range v.graphs {
		short := strings.SplitN(g.Name, "/", 2)[0]
		src := hubs(g, 1)[0]
		sssp, bfs := apps.NewSSSP(), apps.NewBFS()
		sssp.Source, bfs.Source = src, src
		for _, app := range []apps.App{sssp, bfs, apps.NewConnectedComponents()} {
			v.classes = append(v.classes, svcClass{
				class: app.Name() + "/" + short,
				job:   workload.Job{App: app, Graph: g, Seed: seeds[gi]},
			})
			poolApps = append(poolApps, app)
		}
	}
	// A seeded shuffle of a round-robin over the classes.
	v.batch = make([]int, batchJobs)
	for i := range v.batch {
		v.batch[i] = i % len(v.classes)
	}
	for i := len(v.batch) - 1; i > 0; i-- {
		j := int(mix(seed, domainOrder, uint64(i)) % uint64(i+1))
		v.batch[i], v.batch[j] = v.batch[j], v.batch[i]
	}

	start = time.Now()
	if v.pool, err = core.BuildPool(v.cl, poolApps, core.NewThreadCount()); err != nil {
		return nil, err
	}
	v.buildPoolMs = msSince(start)
	v.cache = workload.NewPlacementCache()
	v.sess = &workload.Session{Cluster: v.cl, Cache: v.cache}
	for i := range v.classes {
		c := &v.classes[i]
		jr, err := v.sess.RunJob(v.pool, c.job, engine.Options{})
		if err != nil {
			return nil, err
		}
		if c.want, err = outcomeOf(jr.Exec, true); err != nil {
			return nil, err
		}
	}
	if err := v.rotate(); err != nil {
		return nil, err
	}
	for c := 0; c < warmupCycles; c++ {
		if v.runBatch(); v.batchErr() != nil {
			return nil, fmt.Errorf("warm-up: %w", v.batchErr())
		}
	}
	return v, nil
}

// rotate closes the serving instance, after accounting for its journal in a
// traced pass, and starts a fresh one.
func (v *svc) rotate() error {
	v.retire()
	v.journal = service.NewMemJournal()
	cur, err := service.New(service.Config{
		Cluster: v.cl,
		Cache:   v.cache,
		Workers: svcWorkers,
		Journal: v.journal,
	})
	if err != nil {
		return err
	}
	v.cur, v.served = cur, 0
	return nil
}

func (v *svc) retire() {
	if v.cur == nil {
		return
	}
	if l := v.layers; l != nil && v.served > 0 {
		counters := v.cur.Counters()
		jobs := counters.Completed + counters.Failed
		image := v.journal.Bytes()
		start := time.Now()
		rec := service.RecoverBytes(image)
		recoverMs := msSince(start)
		if rec.Err == nil && jobs > 0 {
			l.recoverMsPer1k = append(l.recoverMsPer1k, recoverMs*1000/float64(jobs))
		}
		l.journalRecords += counters.JournalAppends
		l.journalBytes += uint64(len(image))
		l.jobs += jobs
		l.rejected += counters.RejectedOverload + counters.RejectedBreaker + counters.RejectedBudget + counters.RejectedDegraded
		l.shed += counters.ShedPriority + counters.ShedDeadline
	}
	v.cur.Close()
	v.cur = nil
}

// close releases the serving instance's workers.
func (v *svc) close() { v.retire() }

// runBatch pushes one batch through the service, round by round, and returns
// each round's wall time in milliseconds: first submit to last completion.
func (v *svc) runBatch() [batchRounds]float64 {
	var ms [batchRounds]float64
	for r := range ms {
		ms[r] = v.runRound(r)
	}
	v.served++
	return ms
}

// runRound serves one round's slots. Each client takes the next unserved slot,
// submits its job, waits for it, and only then takes another, so a round ends
// when the work does, however the seed ordered heavy and light jobs.
func (v *svc) runRound(round int) float64 {
	const roundJobs = batchJobs / batchRounds
	lo := round * roundJobs
	ctx := context.Background()
	var next atomic.Int32
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < svcClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := lo + int(next.Add(1)) - 1
				if i >= lo+roundJobs {
					return
				}
				r := &v.slots[i]
				r.submit0 = int64(time.Since(v.epoch))
				r.id, r.err = v.cur.Submit(ctx, tenant, v.classes[v.batch[i]].job)
				r.submit1 = int64(time.Since(v.epoch))
				if r.err != nil {
					continue
				}
				r.status, r.err = v.cur.Wait(ctx, r.id)
				r.doneNs = int64(time.Since(v.epoch))
			}
		}()
	}
	wg.Wait()
	return msSince(start)
}

// batchErr reports the first job of the last batch that did not complete.
func (v *svc) batchErr() error {
	for i := range v.slots {
		if err := v.slotErr(i); err != nil {
			return err
		}
	}
	return nil
}

func (v *svc) slotErr(i int) error {
	r := &v.slots[i]
	switch {
	case r.err != nil:
		return fmt.Errorf("%s: %w", v.classes[v.batch[i]].class, r.err)
	case r.status.State != service.StateDone.String():
		return fmt.Errorf("%s: job %d ended %s: %s", v.classes[v.batch[i]].class, r.id, r.status.State, r.status.Error)
	}
	return nil
}

// run times batches batches. Only the first and last batches' results are
// digested, or every batch's with a tracer; the tracer also gets a span per
// round, job and submit call, built from the clients' timestamps.
func (v *svc) run(batches int, tr *tracer) *pass {
	classes := make([]string, batchRounds)
	for r := range classes {
		classes[r] = roundClass(r)
	}
	p := newPass(classes, batches)
	if tr != nil {
		v.layers = &svcLayers{submitToDoneByClass: map[string][]float64{}, directByClass: map[string][]float64{}}
		v.directFloors(min(batches, gatedMinSamples))
	} else {
		v.layers = nil
	}

	mark := markMem()
	for b := 0; b < batches; b++ {
		cycleStart, cpuStart := time.Now(), processCPU()
		if v.served >= generationBatches {
			if err := v.rotate(); err != nil {
				p.ops += batchJobs
				p.failed += batchJobs
				p.errs = append(p.errs, err.Error())
				break
			}
		}
		for r, ms := range v.runBatch() {
			p.samples[r] = append(p.samples[r], ms)
		}
		p.ops += batchJobs
		check := tr != nil || b == 0 || b == batches-1
		for i := range v.slots {
			r := &v.slots[i]
			if err := v.slotErr(i); err != nil {
				p.fail(err)
				continue
			}
			c := &v.classes[v.batch[i]]
			if b == 0 {
				p.simSeconds += r.status.ExecSeconds + r.status.IngressSeconds
				p.gathers += c.want.Gathers
				p.supersteps += c.want.Supersteps
			}
			if !check {
				continue
			}
			res, err := v.cur.Result(r.id)
			if err == nil && res == nil {
				err = fmt.Errorf("job %d has no result", r.id)
			}
			if err != nil {
				p.fail(err)
				continue
			}
			got, err := outcomeOf(res, false)
			if err == nil {
				err = sameRun(c.want, got)
			}
			if err != nil {
				p.fail(fmt.Errorf("%s batch %d: %w", c.class, b, err))
			}
		}
		if tr != nil {
			v.traceBatch(tr, b)
		}
		p.endCycle(cycleStart, cpuStart)
	}
	mark.close(p, v)
	if tr != nil {
		// The serving instance's journal is accounted for when it retires;
		// a fresh one takes its place so the workload stays usable.
		if err := v.rotate(); err != nil {
			p.fail(err)
		}
	}
	return p
}

func roundClass(round int) string { return fmt.Sprintf("round/%d", round) }

// traceBatch turns the clients' timestamps into spans and layer samples: a
// root span per round, a child per job, and under it the submit call.
func (v *svc) traceBatch(tr *tracer, b int) {
	const roundJobs = batchJobs / batchRounds
	shift := int64(v.epoch.Sub(tr.epoch))
	l := v.layers
	for round := 0; round < batchRounds; round++ {
		slots := v.slots[round*roundJobs : (round+1)*roundJobs]
		lo, hi := slots[0].submit0, slots[0].doneNs
		for i := range slots {
			if r := &slots[i]; r.err == nil {
				lo, hi = min(lo, r.submit0), max(hi, r.doneNs)
			}
		}
		root := tr.add(span{Name: "round", Class: roundClass(round), Cycle: b, Parent: -1, StartNs: lo + shift, EndNs: hi + shift})
		for i := range slots {
			r := &slots[i]
			if r.err != nil {
				continue
			}
			class := v.classes[v.batch[round*roundJobs+i]].class
			job := tr.add(span{Name: "service.job", Class: class, Cycle: b, Parent: root, StartNs: r.submit0 + shift, EndNs: r.doneNs + shift})
			tr.add(span{Name: "service.submit", Class: class, Cycle: b, Parent: job, StartNs: r.submit0 + shift, EndNs: r.submit1 + shift})
			s2d := float64(r.doneNs-r.submit0) / 1e6
			l.submitUs = append(l.submitUs, float64(r.submit1-r.submit0)/1e3)
			l.submitToDoneMs = append(l.submitToDoneMs, s2d)
			l.queueWaitMs = append(l.queueWaitMs, r.status.QueueWaitSeconds*1e3)
			l.submitToDoneByClass[class] = append(l.submitToDoneByClass[class], s2d)
		}
	}
}

// directFloors runs every class reps times directly through Session.RunJob:
// what a job costs without the service around it.
func (v *svc) directFloors(reps int) {
	for i := range v.classes {
		c := &v.classes[i]
		for k := 0; k < reps; k++ {
			start := time.Now()
			_, err := v.sess.RunJob(v.pool, c.job, engine.Options{})
			if err == nil {
				v.layers.directByClass[c.class] = append(v.layers.directByClass[c.class], msSince(start))
			}
		}
	}
}

// verify checks the reference results against the oracles and the pinned
// expectations. Every service result was already compared with its reference.
func (v *svc) verify(p *pass, pinned map[string]outcome) {
	views := make(map[*graph.Graph]*adjacency)
	for i := range v.classes {
		c := &v.classes[i]
		g := c.job.Graph
		if views[g] == nil {
			views[g] = undirected(g)
		}
		if err := verify(c.job.App, g, views[g], c.want.out); err != nil {
			p.fail(err)
		}
		p.checkPinned(c.class, c.want, pinned)
	}
}
