package engine

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"proxygraph/internal/cluster"
	"proxygraph/internal/graph"
	"proxygraph/internal/trace"
)

// applyChunksPerWorker oversubdivides the dense apply sweep: each worker's
// vertex range is split into this many steal-able chunks, so a worker whose
// range happens to hold the expensive masters (frontier clusters, hub-heavy
// stretches) sheds work to idle peers instead of serializing the barrier.
const applyChunksPerWorker = 4

// serialSparseCutoff is the frontier size below which a sparse superstep runs
// every worker's loop inline on the caller's goroutine. Near-empty frontiers
// (SSSP tails, cascade endgames) carry so little work that spawning 2W
// goroutines per superstep costs more than the sweep itself; the inline path
// executes the identical per-worker loops in worker order, so results and
// accounting are unchanged.
const serialSparseCutoff = 256

// Run executes prog over the placement on cl and returns the execution report
// plus the final vertex states. The computation is exact; only the charged
// time depends on the placement. It is the engine's one fast superstep loop;
// RunReference is its executable specification.
//
// Each superstep sweeps the placement's machine-local CSR-style edge blocks,
// compiled by the first run in that gather direction (records grouped by
// gather destination, so the sweep is sequential with no indirection through
// g.Edges and the per-destination skew/partial bookkeeping falls out of the
// group boundaries), and frontier-driven programs switch to a sparse worklist
// sweep whenever the active set drops below the hybrid frontier's density
// threshold, skipping inactive edges entirely.
//
// Host-side, every phase is a bag of tasks over destination shards:
// Options.Workers workers each own a disjoint vertex range of the shared
// acc/has arrays during gather, so accumulation is merge-free and memory stays
// O(|V|) — no per-machine private accumulator copies. Because each machine's
// destination-grouped block is sorted by destination, a shard's share of every
// machine is a contiguous group range found by binary search. One worker (the
// default, and what every production path runs) is the same loop with one
// shard covering [0, |V|): its tasks run inline on the caller's goroutine, the
// step counters are written in place and activations go straight into the next
// frontier. With several workers:
//
//   - gather: one task per destination shard, dispatched through the
//     work-stealing loop shared with the placement compile;
//   - apply+scatter: the dense sweep steals applyChunksPerWorker×W vertex
//     chunks, so frontier clustering cannot serialize the barrier; counters
//     are keyed by the claiming worker and merged as exact integer sums, so
//     chunk scheduling never shows up in the accounting;
//   - accumulator reset: sharded over the same vertex ranges.
//
// Simulated times, energy and communication are bit-identical to
// RunReference at any worker count: each per-machine counter is either a sum
// of exactly-representable integer counts over disjoint vertex sets or a max
// over them, so worker scheduling cannot perturb it. Vertex values never
// depend on the worker count either — each destination's contributions are
// summed machine-major in local record order by the one shard that owns it.
// Against RunReference they are bit-identical on dense supersteps and agree
// up to floating-point re-association on sparse ones (exactly for
// min/max/integer folds).
//
// Options add dynamic rebalancing, fault injection with checkpoint recovery,
// tracing and a warm-start frontier. A placement change (migration, crash
// repartition) swaps in freshly compiled blocks; the shard bounds stay fixed,
// which affects host-side balance only, never results or accounting. Buffers
// are allocated once per run and reused across supersteps.
func Run[V, A any](prog Program[V, A], pl *Placement, cl *cluster.Cluster, opts Options) (*Result, []V, error) {
	if cl.Size() != pl.M {
		return nil, nil, fmt.Errorf("engine: placement has %d machines, cluster %d", pl.M, cl.Size())
	}
	g := pl.G
	n := g.NumVertices
	W := max(1, min(opts.Workers, n))

	r := &sweep[V, A]{
		prog:     prog,
		pl:       pl,
		applyAll: prog.ApplyAll(),
		rt:       Runtime{NumVertices: n, NumEdges: len(g.Edges)},
		vals:     make([]V, n),
		acc:      make([]A, n),
		has:      make([]bool, n),
	}
	applyAll := r.applyAll
	both := prog.Direction() == GatherBoth
	r.blocks = pl.blocks(both)

	// Destination sharding. counters is what the accountant is charged with;
	// one worker owns every vertex and writes them in place. Several workers
	// get vertex ranges balanced by gather-record count, finer-grained cut
	// points for the stealable dense apply sweep, and per-(worker, machine)
	// counter shards merged after each step. The cuts are fixed for the run:
	// rebalancing shifts masters between machines but the ranges only steer
	// host-side balance.
	counters := make([]StepCounters, pl.M)
	r.lanes, r.workC = r.lane0[:], counters
	r.lanes[0].hi = graph.VertexID(n)
	applyChunks := 1
	if W > 1 {
		r.lanes, r.workC = make([]lane, W), make([]StepCounters, W*pl.M)
		prefix := gatherPrefix(r.blocks, n)
		bounds := cutBounds(prefix, W)
		for t := range r.lanes {
			r.lanes[t].lo, r.lanes[t].hi = bounds[t], bounds[t+1]
		}
		applyChunks = max(1, min(W*applyChunksPerWorker, n))
		r.applyBounds = cutBounds(prefix, applyChunks)
	}

	prog.Init(r.vals, g)

	account := NewAccountant(cl, prog.Coeffs())
	account.SetCollector(opts.Trace)

	// The frontier starts full — every vertex gathers in superstep 0, exactly
	// as the reference engine's all-true active bitmap prescribes — unless a
	// warm-start seed narrows it to the vertices a delta batch touched.
	r.front, r.next = newFrontier(n), newFrontier(n)
	if opts.InitialActive != nil && !applyAll {
		if err := validateInitialActive(opts.InitialActive, n); err != nil {
			return nil, nil, err
		}
		r.front.seed(opts.InitialActive)
	} else {
		r.front.fill()
	}

	ft, err := newFTRun[V](opts.Fault, cl)
	if err != nil {
		return nil, nil, err
	}
	ft.baseline(r.vals, r.front.bits, r.front.count, account)

	// One |V|-sized list for the whole run: a task applying vertices of
	// [lo, hi) appends its signalled vertices to signal[lo:lo:hi], so tasks
	// never share a slot and Program.Apply's append never allocates. Frontier
	// programs get a second one, carved up the same way, for the dense steps'
	// lists of gathered vertices (both from one allocation).
	if applyAll {
		r.signal = make([]graph.VertexID, n)
	} else {
		lists := make([]graph.VertexID, 2*n)
		r.signal, r.gathered = lists[:n], lists[n:]
		// Shared across gather shards: each destination belongs to exactly
		// one shard's range, so the stamp arrays see disjoint writes.
		r.touched = make([]uint8, n)
		r.contribs = make([]int32, n)
	}

	maxSteps := prog.MaxSupersteps()
	for step := 0; step < maxSteps; step++ {
		r.rt.Step = step
		account.StepBegin(step, r.front.count, "sync")
		ft.beforeStep(step, account)
		clear(r.workC)

		// Direction choice, made per superstep: a sparse frontier drives a
		// worklist sweep over the source-grouped blocks; otherwise every
		// shard scans its destination-grouped group ranges sequentially.
		r.sparse = !applyAll && r.front.sparse()
		r.srcs, r.act = nil, nil
		if r.sparse {
			r.srcs = r.front.sorted()
		} else if !applyAll {
			r.act = r.front.bits // nil when every vertex is a gather source
		}

		// Near-empty frontiers run all phases inline: same loops, same worker
		// indices, zero goroutines.
		phaseWorkers := W
		if r.sparse && len(r.srcs) < serialSparseCutoff {
			phaseWorkers = 1
		}

		// Gather, then apply+scatter: masters apply, changed vertices count
		// their mirror broadcasts and activate themselves in the next
		// frontier. Only gathered destinations can apply after a sparse
		// gather, so that sweep visits the shards' dirty lists instead of
		// every vertex.
		r.each(phaseGather, phaseWorkers, W)
		if r.sparse {
			r.each(phaseApply, phaseWorkers, W)
		} else {
			r.each(phaseApply, W, applyChunks)
		}

		// Merge the counter shards: sums of exactly-representable integer
		// counts over disjoint destination (or master) sets and a max over
		// whole per-destination units, so the result equals the one-worker
		// loop's bit for bit whichever worker claimed which chunk.
		if W > 1 {
			clear(counters)
			for i := range r.workC {
				sc, wc := &counters[i%pl.M], &r.workC[i]
				sc.Gathers += wc.Gathers
				sc.Applies += wc.Applies
				sc.PartialsOut += wc.PartialsOut
				sc.UpdatesOut += wc.UpdatesOut
				if wc.MaxUnit > sc.MaxUnit {
					sc.MaxUnit = wc.MaxUnit
				}
			}
		}
		for p := range counters {
			// Per-vertex scheduling bookkeeping is charged every superstep
			// regardless of activity (see CostCoeffs.OpsPerVertex).
			counters[p].Vertices = float64(len(r.pl.MasterVerts[p]))
		}
		account.Superstep(counters)

		// Dynamic rebalancing hook: migrate edges between barriers, paying
		// for the moved state on the wire. The new placement arrives with
		// freshly compiled edge blocks.
		if rb := opts.Rebalancer; rb != nil {
			last := account.LastStep()
			if owner, moved, ok := rb.Decide(step, last.PerMachine, r.pl); ok {
				newPl, err := NewPlacement(g, owner, pl.M)
				if err != nil {
					return nil, nil, fmt.Errorf("engine: rebalance at step %d: %w", step, err)
				}
				r.pl, r.blocks = newPl, newPl.blocks(both)
				account.emit(trace.Event{Kind: trace.KindRebalance, Step: step, Machine: -1, Moved: moved})
				account.Stall(cl.Net.TransferTime(float64(moved)*migratedEdgeBytes), "migrate")
			}
		}

		// Reset accumulators for the next superstep: O(gathered) after a
		// sparse step, a sharded wholesale clear after a dense one.
		if r.sparse {
			var zero A
			for t := range r.lanes {
				ln := &r.lanes[t]
				for _, d := range ln.dirty {
					r.acc[d] = zero
					r.has[d] = false
					r.touched[d] = 0
				}
				ln.dirty = ln.dirty[:0]
			}
		} else {
			r.each(phaseReset, W, W)
		}

		terminated := true
		for t := range r.lanes {
			terminated = terminated && !r.lanes[t].changed
			r.lanes[t].changed = false
		}
		if !applyAll && !terminated {
			if W > 1 {
				r.mergeActivations()
			}
			r.front, r.next = r.next, r.front
			r.next.reset()
			// The frontier count is maintained live by the apply phase, so
			// termination needs no O(|V|) emptiness scan.
			terminated = r.front.count == 0
		}

		// Fault barrier: write a due checkpoint, then fire a scheduled crash.
		// On a crash the run rolls back to the returned checkpoint and resumes
		// on the repartitioned survivor placement; replayed supersteps are
		// charged again — lost work is the recovery overhead being measured.
		restore, newPl, err := ft.barrier(step, terminated, account, r.vals, r.front.bits, r.front.count, r.pl)
		if err != nil {
			return nil, nil, err
		}
		if newPl != nil {
			r.pl, r.blocks = newPl, newPl.blocks(both)
		}
		if restore != nil {
			copy(r.vals, restore.Vals)
			r.front.restore(restore.Active, restore.ActiveCount)
			r.next.reset()
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

// phase names one of a superstep's bags of independent tasks.
type phase int

const (
	phaseGather phase = iota // task t gathers into destination shard t
	phaseApply               // task t applies shard t's dirty destinations (sparse) or vertex chunk t (dense)
	phaseReset               // task t clears shard t's accumulators
)

// lane i is both destination shard i — the vertex range task i of the gather,
// sparse-apply and reset phases owns — and worker i's private scratch. Shard
// fields are keyed by the task, so any claiming worker computes the identical
// result; worker fields hold only values whose merge is order-insensitive.
type lane struct {
	// lo, hi bound the shard's destination range [lo, hi).
	lo, hi graph.VertexID
	// dirty lists the destinations the shard gathered into during a sparse
	// step, so apply and the accumulator reset cost O(gathered), not O(|V|).
	dirty []graph.VertexID
	// adds collects the vertices the worker activated (several workers only;
	// one worker adds straight into the next frontier).
	adds []graph.VertexID
	// changed reports that the worker applied a vertex whose value changed.
	changed bool
}

// sweep is one run's superstep state: what the phase tasks read and write.
// It is a struct rather than closures over Run's locals so the tasks cost one
// allocation per run, not several per superstep (with several workers each
// phase also binds r.runTask, next to the goroutines it spawns).
type sweep[V, A any] struct {
	prog     Program[V, A]
	applyAll bool
	rt       Runtime

	// pl and blocks follow placement changes (rebalancing, crash recovery).
	pl     *Placement
	blocks []machineBlocks

	vals []V
	acc  []A
	has  []bool
	// touched and contribs back the sparse gather's per-(machine,
	// destination) partial accounting: touched[d] is one more than the last
	// machine that gathered into d this superstep — RunReference's (step,
	// machine) stamp without the step, because the accumulator reset zeroes it
	// along the dirty lists — and contribs[d] counts that machine's gathers.
	touched  []uint8
	contribs []int32
	// signal and gathered back the lists the apply phase hands to and gets
	// back from Program.Apply; the task applying [lo, hi) owns [lo:hi] of each.
	signal, gathered []graph.VertexID

	front, next frontier

	// lanes has one entry per worker; lane0 backs it at one worker.
	lanes []lane
	lane0 [1]lane
	// applyBounds are the dense apply sweep's chunk cut points; nil at one
	// worker, whose single chunk is every vertex.
	applyBounds []graph.VertexID
	// workC[w*M+p] is worker (or gather shard) w's share of machine p's step
	// counters; at one worker it is the step's counters themselves.
	workC []StepCounters

	// Per-superstep inputs: the direction choice and the active sources as a
	// sorted worklist (sparse) or a bitmap (dense; nil when all are active).
	sparse bool
	srcs   []graph.VertexID
	act    []bool

	// cur is the phase runTask currently dispatches.
	cur phase
}

// each runs every task of phase ph: inline and in task order on the caller's
// goroutine at one worker — which therefore never pays for binding r.runTask
// to a function value — through the work-stealing loop otherwise.
func (r *sweep[V, A]) each(ph phase, workers, tasks int) {
	r.cur = ph
	if workers <= 1 {
		for t := 0; t < tasks; t++ {
			r.runTask(0, t)
		}
		return
	}
	stealTasks(workers, tasks, r.runTask)
}

func (r *sweep[V, A]) runTask(w, t int) {
	switch r.cur {
	case phaseGather:
		if r.sparse {
			r.gatherSparse(t)
		} else {
			r.gatherDense(t)
		}
	case phaseApply:
		switch {
		case r.sparse:
			ln := &r.lanes[t]
			r.apply(w, ln.dirty, ln.lo, ln.hi)
		case r.applyBounds == nil:
			r.apply(w, nil, 0, graph.VertexID(len(r.vals)))
		default:
			r.apply(w, nil, r.applyBounds[t], r.applyBounds[t+1])
		}
	case phaseReset:
		ln := &r.lanes[t]
		clear(r.has[ln.lo:ln.hi])
		clear(r.acc[ln.lo:ln.hi])
	}
}

// gatherDense accumulates every machine's contributions into shard t's
// destination range — machine-major, so the per-destination fold order matches
// the reference engine — with no merge step. Each destination group is one
// Program.Fold call: the per-edge arithmetic runs inside the program's own
// loop, and the step counters stay in integer locals written once per machine
// block.
func (r *sweep[V, A]) gatherDense(t int) {
	ln := &r.lanes[t]
	prog, vals, acc, has, act := r.prog, r.vals, r.acc, r.has, r.act
	whole := ln.lo == 0 && int(ln.hi) == len(vals)
	for p := range r.blocks {
		blk := &r.blocks[p]
		keys, offs, recs, remote := blk.byDst.Keys, blk.byDst.Offs, blk.byDst.Vals, blk.remote
		lo, hi := 0, len(keys)
		if !whole {
			lo, _ = slices.BinarySearch(keys, ln.lo)
			hi, _ = slices.BinarySearch(keys, ln.hi)
		}
		var gathers, partials int64
		var maxUnit int32
		for gi := lo; gi < hi; gi++ {
			d := keys[gi]
			var c int32
			acc[d], c = prog.Fold(acc[d], has[d], vals, recs[offs[gi]:offs[gi+1]], act)
			// One destination group = one (machine, vertex) partial: its
			// size is the contribution count the reference engine
			// reconstructs with touched/contribs stamps.
			if c > 0 {
				has[d] = true
				gathers += int64(c)
				if remote[gi] {
					partials++
				}
				maxUnit = max(maxUnit, c)
			}
		}
		wc := &r.workC[t*len(r.blocks)+p]
		wc.Gathers += float64(gathers)
		wc.PartialsOut += float64(partials)
		wc.MaxUnit = max(wc.MaxUnit, float64(maxUnit))
	}
}

// gatherSparse is gatherDense driven by the sorted worklist of active
// sources: each machine's source-grouped block yields an active vertex's
// records in O(log K), and records whose destination lies outside shard t are
// another shard's to gather.
func (r *sweep[V, A]) gatherSparse(t int) {
	ln := &r.lanes[t]
	prog, vals, acc, has := r.prog, r.vals, r.acc, r.has
	touched, contribs, master := r.touched, r.contribs, r.pl.Master
	dirty := ln.dirty
	for p := range r.blocks {
		wc := &r.workC[t*len(r.blocks)+p]
		blk := &r.blocks[p].bySrc
		// The +1 keeps every stamp above the zero touched is reset to (p <
		// MaxMachines, so it fits a byte). Destinations are shard-disjoint,
		// so the shared stamp arrays race with no one.
		stamp := uint8(p + 1)
		for i, s := range r.srcs {
			gi := blk.Find(s)
			if gi < 0 {
				continue
			}
			one := r.srcs[i : i+1]
			for _, d := range blk.Group(gi) {
				if d < ln.lo || d >= ln.hi {
					continue
				}
				acc[d], _ = prog.Fold(acc[d], has[d], vals, one, nil)
				if !has[d] {
					has[d] = true
					dirty = append(dirty, d)
				}
				wc.Gathers++
				if touched[d] != stamp {
					touched[d] = stamp
					contribs[d] = 0
					if master[d] != int32(p) {
						wc.PartialsOut++
					}
				}
				contribs[d]++
				if u := float64(contribs[d]); u > wc.MaxUnit {
					wc.MaxUnit = u
				}
			}
		}
	}
	ln.dirty = dirty
}

// apply runs worker w's share of the apply+scatter phase over vertices of
// [lo, hi): one Program.Apply call per vertex list, then the accounting from
// the list handed in (Applies) and the list of signalled vertices it returns
// (a signalled vertex charges its mirror broadcasts and activates itself in
// the next frontier). On ApplyAll steps the lists are the machines' masters in
// the range; otherwise list names a shard's gathered destinations after a
// sparse gather and is nil after a dense one, when the range is scanned for
// the vertices that gathered something. Value writes and frontier bits stay
// disjoint because chunks (dense) and dirty lists (sparse) partition the
// vertex space; counters are integers attributed to each vertex's master
// machine under the claiming worker's shard.
func (r *sweep[V, A]) apply(w int, list []graph.VertexID, lo, hi graph.VertexID) {
	masks := r.pl.ReplicaMask
	workC := r.workC[w*len(r.blocks):]
	ln := &r.lanes[w]
	signal := r.signal[lo:lo:hi]

	if r.applyAll {
		whole := int(hi-lo) == len(r.vals)
		for p, vs := range r.pl.MasterVerts {
			if !whole {
				a, _ := slices.BinarySearch(vs, lo)
				b, _ := slices.BinarySearch(vs, hi)
				vs = vs[a:b]
			}
			out := r.prog.Apply(vs, r.vals, r.acc, r.has, &r.rt, signal)
			// Every replica but the master's own receives the new value.
			updates, self := 0, uint64(1)<<uint(p)
			for _, v := range out {
				updates += bits.OnesCount64(masks[v] &^ self)
			}
			workC[p].Applies += float64(len(vs))
			workC[p].UpdatesOut += float64(updates)
			ln.changed = ln.changed || len(out) > 0
		}
		return
	}

	if list == nil {
		list = r.gathered[lo:lo:hi]
		for v := lo; v < hi; v++ {
			if r.has[v] {
				list = append(list, v)
			}
		}
	}
	out := r.prog.Apply(list, r.vals, r.acc, r.has, &r.rt, signal)
	master := r.pl.Master
	var applies, updates [MaxMachines]int64
	for _, v := range list {
		applies[master[v]]++
	}
	for _, v := range out {
		p := master[v]
		updates[p] += int64(bits.OnesCount64(masks[v] &^ (1 << uint(p))))
	}
	for p := range workC[:len(r.blocks)] {
		workC[p].Applies += float64(applies[p])
		workC[p].UpdatesOut += float64(updates[p])
	}
	if len(out) == 0 {
		return
	}
	ln.changed = true
	if len(r.lanes) == 1 {
		for _, v := range out {
			r.next.add(v)
		}
		return
	}
	for _, v := range out {
		r.next.bits[v] = true
	}
	ln.adds = append(ln.adds, out...)
}

// mergeActivations finalizes the next frontier from the per-worker activation
// lists (bits were set during apply). List order is scheduling-dependent under
// work stealing, which is invisible: every consumer sorts the worklist or
// reads the bitmap.
func (r *sweep[V, A]) mergeActivations() {
	next := &r.next
	next.list, next.count = next.list[:0], 0
	for w := range r.lanes {
		next.count += len(r.lanes[w].adds)
	}
	next.overflow = next.count > next.listCap
	for w := range r.lanes {
		if !next.overflow {
			next.list = append(next.list, r.lanes[w].adds...)
		}
		r.lanes[w].adds = r.lanes[w].adds[:0]
	}
}

// gatherPrefix builds the per-vertex prefix weights the shard cuts balance
// on: destination-grouped gather records plus one unit per vertex, so
// masterless stretches still spread. Built once per run and shared by the
// gather-shard and apply-chunk cut points.
func gatherPrefix(blocks []machineBlocks, n int) []int64 {
	prefix := make([]int64, n+1)
	for v := 0; v < n; v++ {
		prefix[v+1] = 1
	}
	for i := range blocks {
		b := &blocks[i].byDst
		for gi, k := range b.Keys {
			prefix[k+1] += int64(b.Offs[gi+1] - b.Offs[gi])
		}
	}
	for v := 0; v < n; v++ {
		prefix[v+1] += prefix[v]
	}
	return prefix
}

// cutBounds splits the vertex space into ranges of roughly equal prefix
// weight, returning workers+1 ascending cut points.
func cutBounds(prefix []int64, workers int) []graph.VertexID {
	n := len(prefix) - 1
	total := prefix[n]
	bounds := make([]graph.VertexID, workers+1)
	for w := 1; w < workers; w++ {
		target := total * int64(w) / int64(workers)
		v := sort.Search(n, func(i int) bool { return prefix[i+1] >= target })
		bounds[w] = graph.VertexID(v)
	}
	bounds[workers] = graph.VertexID(n)
	return bounds
}
