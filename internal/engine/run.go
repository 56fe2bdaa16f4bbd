package engine

import (
	"fmt"
	"math/bits"

	"proxygraph/internal/cluster"
	"proxygraph/internal/graph"
	"proxygraph/internal/trace"
)

// Run executes prog over the placement on cl and returns the execution report
// plus the final vertex states. The computation is exact; only the charged
// time depends on the placement. It is the engine's one fast superstep loop;
// RunReference is its executable specification.
//
// Each superstep sweeps the placement's machine-local CSR-style edge blocks,
// compiled by the first run in that gather direction (records grouped by
// gather destination, so each group's records are read contiguously with no
// indirection through g.Edges, and the per-destination skew/partial
// bookkeeping falls out of the group boundaries). Within each window of 128
// groups the sweep visits destinations in size order; each destination's
// records are still folded in local-edge order. Frontier-driven programs
// switch to a sparse worklist sweep over the records grouped by source —
// compiled by the first sparse superstep in that direction — whenever the
// active set drops below the hybrid frontier's density threshold, skipping
// inactive edges entirely.
//
// A run is one goroutine: the step counters are written in place, and the
// run keeps one frontier whose worklist storage receives Program.Apply's
// signalled vertices and becomes the next superstep's frontier. Host
// parallelism lives outside the superstep loop — the block compile, the
// ingress scans and the service's job workers — because the simulated
// cluster's clock, not the host's, is the result.
//
// Simulated times, energy and communication are bit-identical to
// RunReference: each per-machine counter is a sum of exactly-representable
// integer counts or a max over whole per-destination units. Each
// destination's contributions are summed machine-major in local record order,
// so vertex values are bit-identical to RunReference on dense supersteps and
// agree up to floating-point re-association on sparse ones (exactly for
// min/max/integer folds).
//
// Options add dynamic rebalancing, fault injection with checkpoint recovery,
// tracing and a warm-start frontier. A placement change (migration, crash
// repartition) swaps in the new placement's layouts. Buffers are allocated once
// per run and reused across supersteps: (sizeof V + sizeof A + 15) bytes per
// vertex for a frontier program, sizeof V + sizeof A + 6 for an ApplyAll one.
func Run[V, A any](prog Program[V, A], pl *Placement, cl *cluster.Cluster, opts Options) (*Result, []V, error) {
	if cl.Size() != pl.M {
		return nil, nil, fmt.Errorf("engine: placement has %d machines, cluster %d", pl.M, cl.Size())
	}
	g := pl.G
	n := g.NumVertices

	r := &sweep[V, A]{
		prog:     prog,
		applyAll: prog.ApplyAll(),
		both:     prog.Direction() == GatherBoth,
		vals:     make([]V, n),
		acc:      make([]A, n),
		has:      make([]bool, n),
		counters: make([]StepCounters, pl.M),
	}
	applyAll := r.applyAll
	r.place(pl)
	counters := r.counters

	prog.Init(r.vals, g)

	account := NewAccountant(cl, prog.Coeffs())
	account.SetCollector(opts.Trace)

	// The frontier starts full — every vertex gathers in superstep 0, exactly
	// as the reference engine's all-true active bitmap prescribes — unless a
	// warm-start seed narrows it to the vertices a delta batch touched.
	r.front = newFrontier(n)
	if err := validateInitialActive(opts.InitialActive, n, applyAll); err != nil {
		return nil, nil, err
	}
	if opts.InitialActive != nil {
		r.front.seed(opts.InitialActive)
	} else {
		r.front.fill()
	}

	ft, err := newFTRun[V](opts.Fault, cl)
	if err != nil {
		return nil, nil, err
	}
	ft.baseline(r.vals, r.front.bits, r.front.count)

	// Frontier programs get a |V|-sized list of vertices to apply: the
	// gathered vertices of a dense step, or the dirty list a sparse gather
	// builds — the two never live at once, and a destination is dirty at most
	// once per step, so the list never grows.
	if !applyAll {
		r.gathered = make([]graph.VertexID, n)
		r.dirty = r.gathered[:0]
		r.touched = make([]uint8, n)
		r.contribs = make([]int32, n)
	}

	maxSteps := prog.MaxSupersteps()
	for step := 0; step < maxSteps; step++ {
		r.rt.Step = step
		account.StepBegin(step, r.front.count, "sync")
		ft.beforeStep(step, account)
		clear(counters)

		// Direction choice, made per superstep: a sparse frontier drives a
		// worklist sweep over the source-grouped blocks; otherwise the
		// destination-grouped blocks are scanned sequentially.
		r.sparse = !applyAll && r.front.sparse()
		r.srcs, r.act = nil, nil
		if r.sparse {
			r.srcs = r.front.sorted()
		} else if !applyAll {
			// Never nil, not even on a full frontier: nil would fold the same
			// bits under Fold's contract but measured no faster.
			r.act = r.front.bits
		}

		// Gather, then apply+scatter: masters apply, changed vertices count
		// their mirror broadcasts and become the next frontier. Only gathered
		// destinations can apply after a sparse gather, so that sweep visits
		// the dirty list instead of every vertex.
		if r.sparse {
			r.gatherSparse()
			r.apply(r.dirty)
		} else {
			r.gatherDense()
			r.apply(nil)
		}

		for p := range counters {
			// Per-vertex scheduling bookkeeping is charged every superstep
			// regardless of activity (see CostCoeffs.OpsPerVertex).
			counters[p].Vertices = float64(len(r.pl.MasterVerts[p]))
		}
		times := account.Superstep(counters)

		// Dynamic rebalancing hook: migrate edges between barriers, paying
		// for the moved state on the wire. The new placement arrives with
		// freshly compiled edge blocks.
		if rb := opts.Rebalancer; rb != nil {
			if owner, moved, ok := rb.Decide(step, times, r.pl); ok {
				newPl, err := NewPlacement(g, owner, pl.M)
				if err != nil {
					return nil, nil, fmt.Errorf("engine: rebalance at step %d: %w", step, err)
				}
				r.place(newPl)
				account.emit(trace.Event{Kind: trace.KindRebalance, Step: step, Machine: -1, Moved: moved})
				account.Stall(cl.Net.TransferTime(float64(moved)*migratedEdgeBytes), "migrate")
			}
		}

		// Reset accumulators for the next superstep: O(gathered) after a
		// sparse step, a wholesale clear after a dense one.
		if r.sparse {
			var zero A
			for _, d := range r.dirty {
				r.acc[d] = zero
				r.has[d] = false
				r.touched[d] = 0
			}
			r.dirty = r.dirty[:0]
		} else {
			clear(r.has)
			clear(r.acc)
		}

		// A frontier program's step changed something exactly when it
		// signalled a vertex, so termination needs no O(|V|) emptiness scan.
		terminated := !r.changed
		r.changed = false

		// Fault barrier: write a due checkpoint, then fire a scheduled crash.
		// On a crash the run rolls back to the returned checkpoint and resumes
		// on the repartitioned survivor placement; replayed supersteps are
		// charged again — lost work is the recovery overhead being measured.
		restore, newPl, err := ft.barrier(step, terminated, account, r.vals, r.front.bits, r.front.count, r.pl)
		if err != nil {
			return nil, nil, err
		}
		if newPl != nil {
			r.place(newPl)
		}
		if restore != nil {
			copy(r.vals, restore.Vals)
			r.front.restore(restore.Active, restore.ActiveCount)
			step = restore.Step - 1 // loop increment lands on restore.Step
			continue
		}
		if terminated {
			break
		}
	}

	res := account.Finish(prog.Name(), g.Name, nil)
	ft.finish(res)
	return res, r.vals, nil
}

// sweep is one run's superstep state: what the gather and apply phases read
// and write.
type sweep[V, A any] struct {
	prog     Program[V, A]
	applyAll bool
	both     bool // the program gathers in both directions
	rt       Runtime

	// pl and its layouts follow placement changes (rebalancing, crash
	// recovery): blocks from the start, and for GatherIn bySrc from the first
	// sparse step (GatherBoth's source grouping is its blocks' byDst).
	pl     *Placement
	blocks []machineBlocks
	bySrc  []graph.Grouped

	vals []V
	acc  []A
	has  []bool
	// touched and contribs back the sparse gather's per-(machine,
	// destination) partial accounting: touched[d] is one more than the last
	// machine that gathered into d this superstep — RunReference's (step,
	// machine) stamp without the step, because the accumulator reset zeroes it
	// along the dirty list — and contribs[d] counts that machine's gathers.
	touched  []uint8
	contribs []int32
	// gathered backs the list of vertices a dense step applies.
	gathered []graph.VertexID
	// dirty lists the destinations a sparse step gathered into, so apply and
	// the accumulator reset cost O(gathered), not O(|V|).
	dirty []graph.VertexID

	// front is the run's frontier: the gather reads it, then the apply phase
	// clears it and refills it with the step's signalled vertices.
	front frontier
	// counters is what the accountant is charged with for the step.
	counters []StepCounters
	// changed reports that the step applied a vertex whose value changed.
	changed bool

	// Per-superstep inputs: the direction choice and the active sources as a
	// sorted worklist (sparse) or a bitmap (dense; nil for an ApplyAll
	// program, whose every vertex is a source), views of front that are dead
	// once the gather is done.
	sparse bool
	srcs   []graph.VertexID
	act    []bool
}

// place points the run at pl: its destination-grouped blocks now, a GatherIn
// source grouping on the next sparse step (see gatherSparse).
func (r *sweep[V, A]) place(pl *Placement) {
	r.pl, r.blocks, r.bySrc = pl, pl.blocks(r.both), nil
}

// gatherDense accumulates every machine's contributions — machine-major, so
// the per-destination fold order matches the reference engine. Each
// destination group is one Program.Fold call: the per-edge arithmetic runs
// inside the program's own loop, and the step counters stay in integer locals
// written once per machine block. Groups are visited in their block's visit
// order (see machineBlocks); each destination has one group per block, so
// the order moves no value and no counter.
func (r *sweep[V, A]) gatherDense() {
	prog, vals, acc, has, act := r.prog, r.vals, r.acc, r.has, r.act
	for p := range r.blocks {
		blk := &r.blocks[p]
		keys, offs, recs := blk.byDst.Keys, blk.byDst.Offs, blk.byDst.Vals
		var gathers, partials int64
		var maxUnit int32
		for i, v := range blk.visit {
			gi := i&^(visitWindow-1) | int(v&^visitRemote)
			d := keys[gi]
			hd := has[d]
			var c int32
			acc[d], c = prog.Fold(acc[d], hd, vals, recs[offs[gi]:offs[gi+1]], act)
			// One destination group = one (machine, vertex) partial: its
			// size is the contribution count the reference engine
			// reconstructs with touched/contribs stamps. On a dense frontier
			// step about half the groups fold nothing, in no predictable
			// pattern, so the bookkeeping is masked by whether this one
			// folded something rather than branched on it; c >= 0, so the
			// sum and the max need no mask, and v>>7 is visitRemote's bit.
			got := bit(c > 0)
			has[d] = bit(hd)|got != 0
			gathers += int64(c)
			partials += int64(got & (v >> 7))
			maxUnit = max(maxUnit, c)
		}
		sc := &r.counters[p]
		sc.Gathers = float64(gathers)
		sc.PartialsOut = float64(partials)
		sc.MaxUnit = float64(maxUnit)
	}
}

// bit is 1 for true and 0 for false, a SETcc or a byte load rather than a
// jump: the frontier hot loops count and mask with it where a branch on
// frontier data would mispredict.
func bit(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// gatherSparse is gatherDense driven by the sorted worklist of active
// sources: each machine's source grouping yields an active vertex's records
// in O(log K). GatherBoth's is its byDst; a GatherIn run's first sparse step
// on a placement fetches GatherIn's, compiling it if no run has yet.
func (r *sweep[V, A]) gatherSparse() {
	if !r.both && r.bySrc == nil {
		r.bySrc = r.pl.sources()
	}
	prog, vals, acc, has := r.prog, r.vals, r.acc, r.has
	touched, contribs, master := r.touched, r.contribs, r.pl.Master
	dirty := r.dirty
	for p := range r.blocks {
		sc := &r.counters[p]
		blk := &r.blocks[p].byDst
		if !r.both {
			blk = &r.bySrc[p]
		}
		// The +1 keeps every stamp above the zero touched is reset to (p <
		// MaxMachines, so it fits a byte).
		stamp := uint8(p + 1)
		for i, s := range r.srcs {
			gi := blk.Find(s)
			if gi < 0 {
				continue
			}
			one := r.srcs[i : i+1]
			for _, d := range blk.Group(gi) {
				acc[d], _ = prog.Fold(acc[d], has[d], vals, one, nil)
				if !has[d] {
					has[d] = true
					dirty = append(dirty, d)
				}
				sc.Gathers++
				if touched[d] != stamp {
					touched[d] = stamp
					contribs[d] = 0
					if master[d] != Machine(p) {
						sc.PartialsOut++
					}
				}
				contribs[d]++
				if u := float64(contribs[d]); u > sc.MaxUnit {
					sc.MaxUnit = u
				}
			}
		}
	}
	r.dirty = dirty
}

// apply runs the apply+scatter phase: one Program.Apply call per vertex list,
// then the accounting from the list handed in (Applies) and the list of
// signalled vertices it returns (a signalled vertex charges its mirror
// broadcasts). On ApplyAll steps the lists are the machines' masters, and the
// full frontier's worklist storage is Apply's signal scratch; otherwise list
// is the dirty list after a sparse gather and nil after a dense one, when
// every vertex is scanned for whether it gathered something, and the
// frontier, read by the gather and now cleared, takes the signalled vertices.
// Counters are attributed to each vertex's master machine.
func (r *sweep[V, A]) apply(list []graph.VertexID) {
	masks := r.pl.ReplicaMask
	counters := r.counters

	if r.applyAll {
		for p, vs := range r.pl.MasterVerts {
			out := r.prog.Apply(vs, r.vals, r.acc, r.has, &r.rt, r.front.list[:0])
			// Every replica but the master's own receives the new value.
			updates, self := 0, uint64(1)<<uint(p)
			for _, v := range out {
				updates += bits.OnesCount64(masks[v] &^ self)
			}
			counters[p].Applies += float64(len(vs))
			counters[p].UpdatesOut += float64(updates)
			r.changed = r.changed || len(out) > 0
		}
		return
	}

	if list == nil {
		// Every vertex is written and the gathered ones kept: about half
		// the vertices gathered, in no predictable pattern (see bit).
		list = r.gathered[:len(r.has)]
		k := 0
		for v, ok := range r.has {
			list[k] = graph.VertexID(v)
			k += int(bit(ok))
		}
		list = list[:k]
	}
	r.front.clearBits()
	out := r.prog.Apply(list, r.vals, r.acc, r.has, &r.rt, r.front.list[:0])
	master := r.pl.Master
	var applies, updates [MaxMachines]int64
	for _, v := range list {
		applies[master[v]]++
	}
	for _, v := range out {
		p := master[v]
		updates[p] += int64(bits.OnesCount64(masks[v] &^ (1 << uint(p))))
	}
	for p := range counters {
		counters[p].Applies += float64(applies[p])
		counters[p].UpdatesOut += float64(updates[p])
	}
	r.changed = len(out) > 0
	r.front.take(out)
}
