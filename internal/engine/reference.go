package engine

import (
	"fmt"
	"math/bits"

	"proxygraph/internal/cluster"
	"proxygraph/internal/graph"
	"proxygraph/internal/trace"
)

// RunReference executes prog with the original edge-list engine: every
// superstep walks pl.LocalEdges()[p] as an index list into g.Edges and filters
// sources against a dense active bitmap, folding one source per Program.Fold
// call and applying one vertex per Program.Apply call: the per-edge and
// per-vertex forms of the contract. It is the executable specification
// of the engine's semantics, options included (rebalancing, fault injection,
// tracing, warm-start frontier) — Run must charge
// per-machine times, energy and communication bit-identically to this
// function and emit the same trace events; the equivalence suite in
// internal/apps enforces exactly that. Use Run for real work: it computes the
// same answer faster.
//
// Test support: internal/apps compares Run against it in equivalence_test.go,
// chaos_test.go, resume_test.go, trace_differential_test.go, clusterbfs_test.go
// and clusterbfs_fuzz_test.go.
func RunReference[V, A any](prog Program[V, A], pl *Placement, cl *cluster.Cluster, opts Options) (*Result, []V, error) {
	rb := opts.Rebalancer
	if cl.Size() != pl.M {
		return nil, nil, fmt.Errorf("engine: placement has %d machines, cluster %d", pl.M, cl.Size())
	}
	g := pl.G
	n := g.NumVertices
	rt := &Runtime{}

	vals := make([]V, n)
	prog.Init(vals, g)

	acc := make([]A, n)
	has := make([]bool, n)
	active := make([]bool, n)
	nextActive := make([]bool, n)
	// touched[v] stamps the last (superstep, machine) pair that contributed a
	// partial for v, so each (machine, vertex) partial is counted once;
	// contribs[v] counts that pair's gathers into v for skew accounting.
	touched := make([]int64, n)
	for v := range touched {
		touched[v] = -1
	}
	contribs := make([]int32, n)

	applyAll := prog.ApplyAll()
	both := prog.Direction() == GatherBoth
	account := NewAccountant(cl, prog.Coeffs())
	account.SetCollector(opts.Trace)

	// frontCount tracks the active-set size for checkpointing. The frontier
	// starts full unless a warm-start seed narrows it (see
	// Options.InitialActive).
	frontCount := 0
	if err := validateInitialActive(opts.InitialActive, n, applyAll); err != nil {
		return nil, nil, err
	}
	if opts.InitialActive != nil {
		for _, v := range opts.InitialActive {
			if !active[v] {
				active[v] = true
				frontCount++
			}
		}
	} else {
		for v := range active {
			active[v] = true
		}
		frontCount = n
	}
	ft, err := newFTRun[V](opts.Fault, cl)
	if err != nil {
		return nil, nil, err
	}
	ft.baseline(vals, active, frontCount)

	// Per-superstep scratch, allocated once and cleared in place.
	counters := make([]StepCounters, pl.M)
	// one is the single-vertex slice every per-edge Fold and per-vertex Apply
	// is handed, and signal what that Apply appends to. Both methods are
	// reached through an interface, so their arguments escape: a fresh slice
	// per call would be one heap object per edge.
	one := make([]graph.VertexID, 1)
	signal := make([]graph.VertexID, 0, 1)

	maxSteps := prog.MaxSupersteps()
	for step := 0; step < maxSteps; step++ {
		rt.Step = step
		account.StepBegin(step, frontCount, "sync")
		ft.beforeStep(step, account)
		clear(counters)

		// Gather phase: every machine walks its local edges and accumulates
		// contributions from active sources into target accumulators. The
		// first contribution a machine makes toward a remote master costs one
		// partial on the wire.
		for p := 0; p < pl.M; p++ {
			sc := &counters[p]
			sc.Vertices = float64(len(pl.MasterVerts[p]))
			// The stamp is unique per (step, machine) pair: p < pl.M makes
			// step*M+p injective over pairs, and the +1 keeps every stamp
			// above the -1 the touched array is initialised with.
			stampBase := int64(step)*int64(pl.M) + int64(p) + 1
			for _, ei := range pl.LocalEdges()[p] {
				e := g.Edges[ei]
				if active[e.Src] {
					one[0] = e.Src
					acc[e.Dst], _ = prog.Fold(acc[e.Dst], has[e.Dst], vals, one, nil)
					has[e.Dst] = true
					sc.Gathers++
					if touched[e.Dst] != stampBase {
						touched[e.Dst] = stampBase
						contribs[e.Dst] = 0
						if pl.Master[e.Dst] != Machine(p) {
							sc.PartialsOut++
						}
					}
					contribs[e.Dst]++
					if u := float64(contribs[e.Dst]); u > sc.MaxUnit {
						sc.MaxUnit = u
					}
				}
				if both && active[e.Dst] {
					one[0] = e.Dst
					acc[e.Src], _ = prog.Fold(acc[e.Src], has[e.Src], vals, one, nil)
					has[e.Src] = true
					sc.Gathers++
					if touched[e.Src] != stampBase {
						touched[e.Src] = stampBase
						contribs[e.Src] = 0
						if pl.Master[e.Src] != Machine(p) {
							sc.PartialsOut++
						}
					}
					contribs[e.Src]++
					if u := float64(contribs[e.Src]); u > sc.MaxUnit {
						sc.MaxUnit = u
					}
				}
			}
		}

		// Apply phase: masters apply and broadcast changed values to mirrors.
		// nextCount tracks the next frontier size as it is built, replacing a
		// post-swap O(|V|) emptiness scan.
		anyChanged := false
		nextCount := 0
		for p := 0; p < pl.M; p++ {
			sc := &counters[p]
			for _, v := range pl.MasterVerts[p] {
				if !applyAll && !has[v] {
					continue
				}
				one[0] = v
				changed := len(prog.Apply(one, vals, acc, has, rt, signal)) > 0
				sc.Applies++
				if changed {
					anyChanged = true
					mirrors := bits.OnesCount64(pl.ReplicaMask[v])
					if pl.ReplicaMask[v]&(1<<uint(p)) != 0 {
						mirrors--
					}
					sc.UpdatesOut += float64(mirrors)
					if !applyAll {
						nextActive[v] = true
						nextCount++
					}
				}
			}
		}

		times := account.Superstep(counters)

		// Dynamic rebalancing hook, identical to Run's.
		if rb != nil {
			if owner, moved, ok := rb.Decide(step, times, pl); ok {
				newPl, err := NewPlacement(g, owner, pl.M)
				if err != nil {
					return nil, nil, fmt.Errorf("engine: rebalance at step %d: %w", step, err)
				}
				pl = newPl
				account.emit(trace.Event{Kind: trace.KindRebalance, Step: step, Machine: -1, Moved: moved})
				account.Stall(cl.Net.TransferTime(float64(moved)*migratedEdgeBytes), "migrate")
			}
		}

		// Reset accumulators for the next superstep.
		clear(has)
		clear(acc)

		terminated := !anyChanged
		if !applyAll && !terminated {
			active, nextActive = nextActive, active
			clear(nextActive)
			frontCount = nextCount
			if frontCount == 0 {
				terminated = true
			}
		}

		// Fault barrier: checkpoint if due, then fire a scheduled crash and
		// roll back onto the repartitioned survivors (see Run).
		restore, newPl, err := ft.barrier(step, terminated, account, vals, active, frontCount, pl)
		if err != nil {
			return nil, nil, err
		}
		if newPl != nil {
			pl = newPl
		}
		if restore != nil {
			copy(vals, restore.Vals)
			copy(active, restore.Active)
			frontCount = restore.ActiveCount
			clear(nextActive)
			// Zero stamps never collide with the positive replay stamps.
			clear(touched)
			step = restore.Step - 1 // loop increment lands on restore.Step
			continue
		}
		if terminated {
			break
		}
	}

	res := account.Finish(prog.Name(), g.Name, nil)
	ft.finish(res)
	return res, vals, nil
}
