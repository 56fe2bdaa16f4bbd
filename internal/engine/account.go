package engine

import (
	"fmt"
	"math"

	"proxygraph/internal/cluster"
	"proxygraph/internal/trace"
)

// CostCoeffs are an application's simulation cost constants: how much CPU and
// memory work each instrumented event charges to its machine, and how many
// wire bytes each exchanged record costs. They play the role the real
// hardware played in the paper — the coefficients are calibrated so the
// per-application scaling behaviours of Fig 2 hold (see DESIGN.md).
type CostCoeffs struct {
	// OpsPerGather / BytesPerGather charge one edge gather.
	OpsPerGather, BytesPerGather float64
	// OpsPerApply / BytesPerApply charge one vertex apply.
	OpsPerApply, BytesPerApply float64
	// OpsPerVertex / BytesPerVertex charge per-vertex scheduling bookkeeping
	// every superstep (PowerGraph's engine walks its vertex sets each
	// barrier regardless of activity). This is why profiling inputs must be
	// adequately dense: an edge-subsampled graph keeps its full vertex set,
	// so bookkeeping swamps the edge work and distorts the measured CCR.
	OpsPerVertex, BytesPerVertex float64
	// SerialFrac is the Amdahl serial fraction of the application's
	// per-superstep work (framework dispatch, reductions, skew).
	SerialFrac float64
	// StepOverheadOps is fully-serial per-superstep framework overhead.
	StepOverheadOps float64
	// AccumBytes is the wire size of one gather partial sent to a master.
	AccumBytes float64
	// ValueBytes is the wire size of one mirror value update.
	ValueBytes float64
}

// StepCounters collects one machine's instrumented events during one
// superstep or async phase.
type StepCounters struct {
	// Gathers counts edge gathers (or probe units for Triangle Count).
	Gathers float64
	// Applies counts vertex applies.
	Applies float64
	// Vertices counts the vertices this machine bookkeeps in the step.
	Vertices float64
	// MaxUnit is the largest indivisible chunk of gather work in the step —
	// the gathers funnelling into one hub vertex, the merge of one edge's
	// neighbor lists, one vertex's neighborhood scan. Such a chunk runs on
	// one core, so degree skew caps multicore scaling; the effect grows with
	// thread count, which is why skewed natural graphs and hash-random
	// proxies scale machines slightly differently (the paper's Fig 8a
	// Triangle Count mismatch at 8xlarge).
	MaxUnit float64
	// PartialsOut counts gather partials sent to remote masters.
	PartialsOut float64
	// UpdatesOut counts mirror value updates sent from local masters.
	UpdatesOut float64
}

// skewSerialWeight converts the dominant-unit share of a step's gathers into
// additional Amdahl serial fraction.
const skewSerialWeight = 0.5

// work converts counters into machine-model work units.
func (sc StepCounters) work(c CostCoeffs) cluster.Work {
	serial := c.SerialFrac
	if sc.Gathers > 0 && sc.MaxUnit > 0 {
		serial += skewSerialWeight * sc.MaxUnit / sc.Gathers
	}
	w := cluster.Work{
		CPUOps:     sc.Gathers*c.OpsPerGather + sc.Applies*c.OpsPerApply + sc.Vertices*c.OpsPerVertex,
		MemBytes:   sc.Gathers*c.BytesPerGather + sc.Applies*c.BytesPerApply + sc.Vertices*c.BytesPerVertex,
		SerialFrac: serial,
	}
	w.Add(cluster.Work{CPUOps: c.StepOverheadOps, SerialFrac: 1})
	return w
}

// commBytes returns the wire bytes this machine sends in the step.
func (sc StepCounters) commBytes(c CostCoeffs) float64 {
	return sc.PartialsOut*c.AccumBytes + sc.UpdatesOut*c.ValueBytes
}

// Result reports one application execution on a cluster.
type Result struct {
	// App and Graph label the run.
	App, Graph string
	// SimSeconds is the simulated wall-clock makespan.
	SimSeconds float64
	// BusySeconds[p] is machine p's compute-busy time.
	BusySeconds []float64
	// CommBytes[p] is the bytes machine p sent.
	CommBytes []float64
	// Supersteps counts synchronous barriers (0 for pure async runs).
	Supersteps int
	// Gathers is the total number of edge gathers charged across the run, the
	// work measure behind throughput metrics like edges/second.
	Gathers float64
	// EnergyJoules is the total cluster energy over the makespan.
	EnergyJoules float64
	// Checkpoints counts superstep checkpoints written during the run and
	// Recoveries the crash recoveries performed; both zero on fault-free
	// runs. Their time and energy costs are folded into SimSeconds,
	// EnergyJoules and the "checkpoint"/"recover" stalls of the run's trace.
	Checkpoints, Recoveries int
	// Output carries the application result (ranks, labels, counts...).
	Output any
}

// Accountant turns per-machine step counters into simulated time and energy.
// Synchronous steps impose a barrier (makespan advances by the slowest
// machine); asynchronous phases accumulate per-machine busy time and fold
// into the makespan as max at the next barrier or at Finish, modelling
// engines that let machines proceed independently (the paper's Coloring runs
// asynchronously).
type Accountant struct {
	cl     *cluster.Cluster
	coeffs CostCoeffs

	// eff, when non-nil, is the cluster steps are charged against instead of
	// cl — the fault layer's perturbation hook (straggler throttling, network
	// degradation). Energy at Finish always uses cl: the hardware is the
	// same, it is just running degraded.
	eff *cluster.Cluster
	// retiredAt[p] is the simulated time machine p crashed, -1 while alive.
	// Retired machines charge no further time, bytes or energy.
	retiredAt []float64

	simTime    float64
	busy       []float64
	comm       []float64
	steps      int
	gathers    float64
	asyncBusy  []float64 // pending async time per machine, not yet folded
	asyncDirty bool
	// step holds the last charged step's per-machine seconds (see Superstep).
	step []float64

	// tc, when non-nil, receives structured execution events; curStep and
	// curKind carry the engine's step context (set by StepBegin) into the
	// charging methods. The engine's step number is authoritative — after a
	// crash rollback it rewinds while a.steps keeps counting replayed work.
	tc      trace.Collector
	curStep int
	curKind string
}

// NewAccountant creates an accountant for a run over cl. Its five
// per-machine slices share one allocation, each capped so that an append to
// one (Result.BusySeconds, say) cannot write into the next.
func NewAccountant(cl *cluster.Cluster, coeffs CostCoeffs) *Accountant {
	buf, m := make([]float64, 5*cl.Size()), cl.Size()
	part := func(i int) []float64 { return buf[i*m : (i+1)*m : (i+1)*m] }
	retired := part(0)
	for i := range retired {
		retired[i] = -1
	}
	return &Accountant{
		cl:        cl,
		coeffs:    coeffs,
		retiredAt: retired,
		busy:      part(1),
		comm:      part(2),
		asyncBusy: part(3),
		step:      part(4),
	}
}

// SetCollector installs a structured-event collector (nil disables tracing;
// the engines pass Options.Trace through unconditionally). With a nil
// collector every emission site is a single nil check, so accounting is
// bit-identical and allocation-free relative to an untraced run.
func (a *Accountant) SetCollector(c trace.Collector) {
	a.tc = c
}

// emit forwards an event to the collector, if any.
func (a *Accountant) emit(e trace.Event) {
	if a.tc != nil {
		a.tc.Event(e)
	}
}

// StepBegin declares the step the next charges belong to: the engine's step
// number (not a.steps, which diverges during crash replay), the frontier size
// driving it, and the step kind ("sync" or "async").
func (a *Accountant) StepBegin(step, frontier int, kind string) {
	a.curStep = step
	a.curKind = kind
	a.emit(trace.Event{Kind: trace.KindStepBegin, Step: step, Machine: -1, Label: kind, Frontier: frontier})
}

// phaseSeconds attributes one machine's superstep compute time to the
// gather, apply and bookkeeping phases by pricing each phase's work in
// isolation. The phases share the machine's Amdahl serial behaviour, so the
// parts do not sum exactly to the step's charged compute time — they are an
// attribution for profiling, while Event.Seconds stays the exact charge.
func phaseSeconds(sc StepCounters, c CostCoeffs, m cluster.Machine) (gather, apply, book float64) {
	serial := c.SerialFrac
	if sc.Gathers > 0 && sc.MaxUnit > 0 {
		serial += skewSerialWeight * sc.MaxUnit / sc.Gathers
	}
	if sc.Gathers > 0 {
		gather = m.ComputeTime(cluster.Work{
			CPUOps:     sc.Gathers * c.OpsPerGather,
			MemBytes:   sc.Gathers * c.BytesPerGather,
			SerialFrac: serial,
		})
	}
	if sc.Applies > 0 {
		apply = m.ComputeTime(cluster.Work{
			CPUOps:     sc.Applies * c.OpsPerApply,
			MemBytes:   sc.Applies * c.BytesPerApply,
			SerialFrac: c.SerialFrac,
		})
	}
	w := cluster.Work{
		CPUOps:     sc.Vertices * c.OpsPerVertex,
		MemBytes:   sc.Vertices * c.BytesPerVertex,
		SerialFrac: c.SerialFrac,
	}
	w.Add(cluster.Work{CPUOps: c.StepOverheadOps, SerialFrac: 1})
	book = m.ComputeTime(w)
	return gather, apply, book
}

// emitMachineStep reports one machine's charged step time plus its phase
// attribution and raw counters.
func (a *Accountant) emitMachineStep(p int, sc StepCounters, m cluster.Machine, net cluster.Network, seconds float64) {
	gather, apply, book := phaseSeconds(sc, a.coeffs, m)
	a.tc.Event(trace.Event{
		Kind:          trace.KindMachineStep,
		Step:          a.curStep,
		Machine:       p,
		Label:         a.curKind,
		Seconds:       seconds,
		GatherSeconds: gather,
		ApplySeconds:  apply,
		BookSeconds:   book,
		CommSeconds:   net.TransferTime(sc.commBytes(a.coeffs)),
		Gathers:       sc.Gathers,
		Applies:       sc.Applies,
		Vertices:      sc.Vertices,
		MaxUnit:       sc.MaxUnit,
		PartialsOut:   sc.PartialsOut,
		UpdatesOut:    sc.UpdatesOut,
	})
}

// setEffective installs the cluster the next phases are charged against
// (nil restores the real cluster). The fault injector calls this before each
// superstep so throttled machines and degraded links cost what they should.
func (a *Accountant) setEffective(cl *cluster.Cluster) {
	if cl == a.cl {
		cl = nil
	}
	a.eff = cl
}

// effective returns the cluster used for time charging.
func (a *Accountant) effective() *cluster.Cluster {
	if a.eff != nil {
		return a.eff
	}
	return a.cl
}

// Retire marks machine p as permanently failed at the current simulated
// time: it charges nothing from now on and its idle power stops accruing at
// the moment of death.
func (a *Accountant) Retire(p int) {
	if p >= 0 && p < len(a.retiredAt) && a.retiredAt[p] < 0 {
		a.retiredAt[p] = a.simTime
	}
}

// Superstep charges one synchronous step: every machine computes and
// communicates, then all meet at the barrier. Communication overlaps
// computation (PowerGraph pipelines sends during the gather/scatter sweeps),
// so a machine's step time is the larger of the two, not their sum.
//
// It returns each machine's step time, 0 for a retired machine. The slice is
// the accountant's own buffer: it stays valid until the next Superstep or
// Async charge, so a caller that keeps the numbers must copy them.
func (a *Accountant) Superstep(counters []StepCounters) []float64 {
	a.foldAsync()
	a.steps++
	eff := a.effective()
	worst := 0.0
	perMachine := a.step[:len(counters)]
	clear(perMachine)
	for p, sc := range counters {
		if a.retiredAt[p] >= 0 {
			continue // dead machines do no work, not even step overhead
		}
		m := eff.Machines[p]
		a.gathers += sc.Gathers
		tCompute := m.ComputeTime(sc.work(a.coeffs))
		bytes := sc.commBytes(a.coeffs)
		tComm := eff.Net.TransferTime(bytes)
		a.busy[p] += tCompute
		a.comm[p] += bytes
		t := math.Max(tCompute, tComm)
		perMachine[p] = t
		if t > worst {
			worst = t
		}
	}
	a.simTime += worst
	if a.tc != nil {
		for p, sc := range counters {
			if a.retiredAt[p] >= 0 {
				continue
			}
			a.emitMachineStep(p, sc, eff.Machines[p], eff.Net, perMachine[p])
		}
		a.tc.Event(trace.Event{Kind: trace.KindStepEnd, Step: a.curStep, Machine: -1, Label: a.curKind, Seconds: worst})
	}
	return perMachine
}

// Async charges one asynchronous phase: machines work independently with no
// barrier; their busy times accumulate until the next fold.
func (a *Accountant) Async(counters []StepCounters) {
	eff := a.effective()
	perMachine := a.step[:len(counters)]
	for p, sc := range counters {
		if a.retiredAt[p] >= 0 {
			perMachine[p] = 0
			continue
		}
		m := eff.Machines[p]
		a.gathers += sc.Gathers
		tCompute := m.ComputeTime(sc.work(a.coeffs))
		bytes := sc.commBytes(a.coeffs)
		t := math.Max(tCompute, eff.Net.TransferTime(bytes))
		a.asyncBusy[p] += t
		a.busy[p] += tCompute
		a.comm[p] += bytes
		a.asyncDirty = true
		perMachine[p] = t
	}
	if a.tc != nil {
		for p, sc := range counters {
			if a.retiredAt[p] >= 0 {
				continue
			}
			a.emitMachineStep(p, sc, eff.Machines[p], eff.Net, perMachine[p])
		}
		// Async rounds have no barrier; the zero-second StepEnd just closes
		// the round for exporters.
		a.tc.Event(trace.Event{Kind: trace.KindStepEnd, Step: a.curStep, Machine: -1, Label: a.curKind})
	}
}

// Stall charges a full-cluster pause of the given duration (e.g. a dynamic
// rebalancing migration): the makespan advances with no machine busy.
func (a *Accountant) Stall(seconds float64, kind string) {
	if seconds <= 0 {
		return
	}
	a.foldAsync()
	a.simTime += seconds
	a.emit(trace.Event{Kind: trace.KindStall, Step: a.curStep, Machine: -1, Label: kind, Seconds: seconds})
}

func (a *Accountant) foldAsync() {
	if !a.asyncDirty {
		return
	}
	worst := 0.0
	for p, t := range a.asyncBusy {
		if t > worst {
			worst = t
		}
		a.asyncBusy[p] = 0
	}
	a.simTime += worst
	a.asyncDirty = false
}

// Finish folds pending async time and produces the Result. Energy integrates
// each machine's busy power over its busy time and idle power over the
// remainder of the makespan (the straggler-wait energy the paper's load
// balancing recovers).
func (a *Accountant) Finish(app, graphName string, output any) *Result {
	a.foldAsync()
	res := &Result{
		App:         app,
		Graph:       graphName,
		SimSeconds:  a.simTime,
		BusySeconds: a.busy,
		CommBytes:   a.comm,
		Supersteps:  a.steps,
		Gathers:     a.gathers,
		Output:      output,
	}
	for p, m := range a.cl.Machines {
		on := a.simTime
		if a.retiredAt[p] >= 0 {
			// A crashed machine is powered off from the moment of death.
			on = a.retiredAt[p]
		}
		res.EnergyJoules += m.Energy(a.busy[p], on)
	}
	return res
}

// Price charges a recorded run to cl: it replays the step counters of the
// run's machine-step events through a fresh Accountant, so there is one cost
// model. It refuses every event but step begins, machine steps and step ends
// (a stall, fault, crash, checkpoint, recovery or rebalance depended on the
// recorded cluster), a machine outside cl, and a stream with no step. The
// Result has no App, Graph or Output.
func Price(events []trace.Event, cl *cluster.Cluster, coeffs CostCoeffs) (*Result, error) {
	a := NewAccountant(cl, coeffs)
	counters := make([]StepCounters, cl.Size())
	steps := 0
	for _, e := range events {
		switch e.Kind {
		case trace.KindStepBegin:
			clear(counters)
		case trace.KindMachineStep:
			if e.Machine < 0 || e.Machine >= len(counters) {
				return nil, fmt.Errorf("engine: cannot price machine %d on %d machines", e.Machine, len(counters))
			}
			counters[e.Machine] = StepCounters{Gathers: e.Gathers, Applies: e.Applies, Vertices: e.Vertices,
				MaxUnit: e.MaxUnit, PartialsOut: e.PartialsOut, UpdatesOut: e.UpdatesOut}
		case trace.KindStepEnd:
			if e.Label == "async" {
				a.Async(counters)
			} else {
				a.Superstep(counters)
			}
			steps++
		default:
			return nil, fmt.Errorf("engine: cannot price a %s event: its charge depends on the recorded cluster", e.Kind)
		}
	}
	if steps == 0 {
		return nil, fmt.Errorf("engine: no step to price")
	}
	return a.Finish("", "", nil), nil
}
