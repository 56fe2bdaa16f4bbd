package engine

import (
	"fmt"
	"sort"

	"proxygraph/internal/cluster"
	"proxygraph/internal/graph"
	"proxygraph/internal/rng"
	"proxygraph/internal/trace"
)

// FaultInjector feeds a deterministic fault schedule into a synchronous run.
// Implementations must be pure functions of the step number so that every
// engine — and every replay after a rollback — observes the identical
// schedule. internal/fault provides the seed-driven implementation.
type FaultInjector interface {
	// Perturb returns the cluster superstep `step` should be charged against:
	// cl itself when the step runs at full health, or a modified copy when a
	// transient fault (straggler throttling, network degradation) is active.
	// The returned cluster must have the same machine count as cl.
	Perturb(step int, cl *cluster.Cluster) *cluster.Cluster
	// Crash returns the machine that permanently fails at the barrier ending
	// `step`, or a negative value when none does. Crashes against machines
	// that are already dead are ignored.
	Crash(step int) int
}

// RecoveryPolicy selects how a run resumes after a machine crash.
type RecoveryPolicy int

const (
	// RecoverCheckpoint rolls back to the most recent superstep checkpoint
	// (or to the initial state when none has been written yet) and resumes on
	// the surviving machines with the dead machine's edges repartitioned
	// across them.
	RecoverCheckpoint RecoveryPolicy = iota
	// RecoverRestart is the baseline: the run restarts from superstep 0 on
	// the survivors, discarding any checkpoints.
	RecoverRestart
)

// FaultConfig enables fault injection and checkpoint-based recovery on a
// synchronous run.
type FaultConfig struct {
	// Injector supplies the fault schedule; nil disables faults (checkpoints
	// may still be written and charged).
	Injector FaultInjector
	// CheckpointEvery writes a checkpoint after every k-th superstep barrier
	// (k > 0); zero disables checkpointing.
	CheckpointEvery int
	// Policy selects the recovery strategy after a crash.
	Policy RecoveryPolicy
}

// Options bundles the optional behaviours of a synchronous run.
type Options struct {
	// Rebalancer, when non-nil, is invoked after every superstep barrier and
	// may migrate edges between machines (see Rebalancer).
	Rebalancer Rebalancer
	// Fault, when non-nil, enables fault injection and checkpointing.
	Fault *FaultConfig
	// Trace, when non-nil, receives structured execution events (see
	// internal/trace). Nil disables tracing with zero behaviour change:
	// accounting is bit-identical either way.
	Trace trace.Collector
	// InitialActive, when non-nil, seeds superstep 0's frontier with exactly
	// these vertices instead of the full vertex set — the warm-start hook for
	// delta-based re-execution (apps.Resume*), where only vertices touched by
	// an edge batch need reprocessing. A non-nil empty slice is a valid seed:
	// the run terminates after one idle superstep. Ignored for ApplyAll
	// programs: those gather from every vertex each superstep in all engines,
	// so a partial seed has no consistent meaning there. The seed is captured
	// by the superstep-0 baseline, so fault-schedule replays and full restarts
	// resume from the same warm frontier.
	InitialActive []graph.VertexID
}

// validateInitialActive bounds-checks a warm-start seed against the vertex
// count before any engine state is built from it.
func validateInitialActive(seed []graph.VertexID, n int) error {
	for _, v := range seed {
		if int(v) >= n {
			return fmt.Errorf("engine: initial-active vertex %d out of range [0,%d)", v, n)
		}
	}
	return nil
}

// ftRun drives one run's fault-tolerance protocol. A nil *ftRun is a valid
// no-op controller, so the engines call its hooks unconditionally.
type ftRun[V any] struct {
	cfg  *FaultConfig
	base *cluster.Cluster
	dead []bool
	// init is the free superstep-0 snapshot full restarts roll back to; ckpt
	// is the most recent paid checkpoint.
	init *Checkpoint[V]
	ckpt *Checkpoint[V]

	checkpoints int
	recoveries  int
}

func newFTRun[V any](cfg *FaultConfig, cl *cluster.Cluster) (*ftRun[V], error) {
	if cfg == nil {
		return nil, nil
	}
	if cfg.CheckpointEvery < 0 {
		return nil, fmt.Errorf("engine: checkpoint interval %d is negative", cfg.CheckpointEvery)
	}
	if cfg.Policy != RecoverCheckpoint && cfg.Policy != RecoverRestart {
		return nil, fmt.Errorf("engine: unknown recovery policy %d", cfg.Policy)
	}
	return &ftRun[V]{cfg: cfg, base: cl, dead: make([]bool, cl.Size())}, nil
}

// baseline records the initial state (after Init, before superstep 0). It is
// free: every machine can re-derive it from the input graph, which is exactly
// what a full restart does.
func (f *ftRun[V]) baseline(vals []V, active []bool, activeCount int) {
	if f == nil {
		return
	}
	f.init = snapshotCheckpoint(0, vals, active, activeCount)
}

// beforeStep installs the effective cluster for the coming superstep.
func (f *ftRun[V]) beforeStep(step int, a *Accountant) {
	if f == nil || f.cfg.Injector == nil {
		return
	}
	eff := f.cfg.Injector.Perturb(step, f.base)
	if eff != f.base {
		// Perturb returns the base cluster pointer on healthy steps, so this
		// fires exactly on perturbed ones — deterministically, since the
		// injector is a pure function of the step number.
		a.emit(trace.Event{Kind: trace.KindFault, Step: step, Machine: -1, Label: "perturb"})
	}
	a.setEffective(eff)
}

// barrier runs the fault protocol at the barrier ending `step`: write a
// checkpoint if one is due, then fire a scheduled crash. vals/active/
// activeCount describe the post-barrier state (the frontier that will drive
// step+1); terminated reports that the run is about to stop, which suppresses
// both checkpointing and crashes (a machine lost after the last barrier
// cannot change the result).
//
// A non-nil restore tells the engine to roll its state back to that
// checkpoint and resume at restore.Step; a non-nil newPl is the repartitioned
// survivor placement to continue on. All recovery costs are charged to the
// accountant before returning.
func (f *ftRun[V]) barrier(step int, terminated bool, a *Accountant, vals []V, active []bool, activeCount int, pl *Placement) (restore *Checkpoint[V], newPl *Placement, err error) {
	if f == nil {
		return nil, nil, nil
	}
	if f.cfg.CheckpointEvery > 0 && !terminated && (step+1)%f.cfg.CheckpointEvery == 0 {
		vsize, err := stateSize[V]()
		if err != nil {
			return nil, nil, err
		}
		f.ckpt = snapshotCheckpoint(step+1, vals, active, activeCount)
		stall := f.storageSeconds(pl, vsize)
		a.emit(trace.Event{
			Kind: trace.KindCheckpoint, Step: step + 1, Machine: -1,
			Seconds: stall, Bytes: checkpointSize(len(vals), len(f.dead), vsize),
		})
		a.Stall(stall, "checkpoint")
		f.checkpoints++
	}
	if f.cfg.Injector == nil || terminated {
		return nil, nil, nil
	}
	p := f.cfg.Injector.Crash(step)
	if p < 0 || p >= len(f.dead) || f.dead[p] {
		return nil, nil, nil
	}
	alive := 0
	for _, d := range f.dead {
		if !d {
			alive++
		}
	}
	if alive <= 1 {
		// Losing the last machine would kill the job outright; the schedule
		// generator never asks for it, and we refuse to model it.
		return nil, nil, nil
	}
	f.dead[p] = true
	a.Retire(p)
	a.emit(trace.Event{Kind: trace.KindCrash, Step: step, Machine: p})
	newPl, moved, err := RepartitionSurvivors(pl, f.dead)
	if err != nil {
		return nil, nil, err
	}
	restore = f.init
	fromDisk := false
	if f.cfg.Policy == RecoverCheckpoint && f.ckpt != nil {
		restore = f.ckpt
		fromDisk = true
	}
	// Recovery stalls the cluster for: failure detection (one timeout
	// exchange), re-shipping the dead machine's edges to their new owners,
	// and — when rolling back to a written checkpoint — re-reading the
	// checkpointed masters from storage on the survivors.
	seconds := f.base.Net.LatencySec + f.base.Net.TransferTime(float64(moved)*migratedEdgeBytes)
	if fromDisk {
		vsize, err := stateSize[V]()
		if err != nil {
			return nil, nil, err
		}
		seconds += f.storageSeconds(newPl, vsize)
	}
	policy := "restart"
	if fromDisk {
		policy = "checkpoint"
	}
	a.emit(trace.Event{
		Kind: trace.KindRecovery, Step: step, Machine: p, Label: policy,
		Resume: restore.Step, Seconds: seconds, Moved: moved,
	})
	a.Stall(seconds, "recover")
	f.recoveries++
	return restore, newPl, nil
}

// finish copies the protocol counters onto the run's result.
func (f *ftRun[V]) finish(res *Result) {
	if f == nil {
		return
	}
	res.Checkpoints = f.checkpoints
	res.Recoveries = f.recoveries
}

// storageSeconds is the barrier cost of moving each alive machine's share of
// a checkpoint (its masters' values plus frontier flags) through its storage:
// machines write/read in parallel, so the cluster waits for the slowest, plus
// one network exchange to agree the checkpoint is durable.
func (f *ftRun[V]) storageSeconds(pl *Placement, vsize int) float64 {
	worst := 0.0
	for p := 0; p < pl.M; p++ {
		if f.dead[p] {
			continue
		}
		bw := f.base.Machines[p].DiskBWGBs
		if bw <= 0 {
			bw = cluster.DefaultDiskGBs
		}
		t := float64(len(pl.MasterVerts[p])) * float64(vsize+1) / (bw * 1e9)
		if t > worst {
			worst = t
		}
	}
	return worst + f.base.Net.LatencySec
}

// RepartitionSurvivors reassigns every edge owned by a dead machine to the
// surviving machines, proportionally to the edge counts the survivors already
// hold (largest-remainder rounding, deterministic), and returns the finalized
// placement plus the number of edges that moved. Machine indices are
// preserved — dead machines remain in the placement with no edges and no
// masters — so per-machine accounting stays aligned across the crash.
func RepartitionSurvivors(pl *Placement, dead []bool) (*Placement, int64, error) {
	if len(dead) != pl.M {
		return nil, 0, fmt.Errorf("engine: %d dead flags for %d machines", len(dead), pl.M)
	}
	var survivors []int
	for p, d := range dead {
		if !d {
			survivors = append(survivors, p)
		}
	}
	if len(survivors) == 0 {
		return nil, 0, fmt.Errorf("engine: no surviving machines to repartition onto")
	}

	owner := append([]Machine(nil), pl.EdgeOwner...)
	var orphans []int32
	for i, o := range owner {
		if dead[o] {
			orphans = append(orphans, int32(i))
		}
	}
	if len(orphans) > 0 {
		counts := make([]int64, len(survivors))
		var total int64
		for i, s := range survivors {
			counts[i] = int64(pl.edgeCount[s])
			total += counts[i]
		}
		n := int64(len(orphans))
		quota := make([]int64, len(survivors))
		if total > 0 {
			// Largest-remainder apportionment of the orphans against the
			// survivors' existing loads, so the crash preserves whatever
			// (possibly CCR-weighted) balance the partitioner produced.
			assigned := int64(0)
			type rem struct {
				r   int64
				idx int
			}
			rems := make([]rem, len(survivors))
			for i := range survivors {
				quota[i] = n * counts[i] / total
				assigned += quota[i]
				rems[i] = rem{r: (n * counts[i]) % total, idx: i}
			}
			sort.Slice(rems, func(a, b int) bool {
				if rems[a].r != rems[b].r {
					return rems[a].r > rems[b].r
				}
				return rems[a].idx < rems[b].idx
			})
			for k := int64(0); k < n-assigned; k++ {
				quota[rems[k].idx]++
			}
		} else {
			base, extra := n/int64(len(survivors)), n%int64(len(survivors))
			for i := range quota {
				quota[i] = base
				if int64(i) < extra {
					quota[i]++
				}
			}
		}
		oi := 0
		for i, s := range survivors {
			for k := int64(0); k < quota[i]; k++ {
				owner[orphans[oi]] = Machine(s)
				oi++
			}
		}
	}

	newPl, err := NewPlacement(pl.G, owner, pl.M)
	if err != nil {
		return nil, 0, fmt.Errorf("engine: repartition after crash: %w", err)
	}
	// NewPlacement masters every vertex on an owner of one of its edges, and
	// dead machines now own none — only edge-less vertices, hashed across all
	// machine indices, can land on a dead machine. Re-hash those onto the
	// survivors and rebuild the master lists. Isolated vertices never appear
	// in the compiled gather blocks, so the blocks stay valid.
	rehashed := false
	for v, p := range newPl.Master {
		if dead[p] {
			newPl.Master[v] = Machine(survivors[rng.Hash64(uint64(v))%uint64(len(survivors))])
			rehashed = true
		}
	}
	if rehashed {
		for p := range newPl.MasterVerts {
			newPl.MasterVerts[p] = nil
		}
		for v, p := range newPl.Master {
			newPl.MasterVerts[p] = append(newPl.MasterVerts[p], graph.VertexID(v))
		}
	}
	return newPl, int64(len(orphans)), nil
}
