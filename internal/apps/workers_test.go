package apps

import (
	"fmt"
	"testing"

	"proxygraph/internal/cluster"
	"proxygraph/internal/engine"
	"proxygraph/internal/trace"
)

// This file pins the engine's worker-count invariance: the
// work-stealing apply/scatter sweep and the sharded gather hand chunks to
// whichever worker claims them first, so the schedule differs run to run and
// worker count to worker count — but the trace stream, the simulation
// accounting and the vertex values must not. Every phase keys its writes on
// disjoint vertex ranges and merges counters as exact integer sums or maxima,
// so any divergence here means a phase leaked scheduling into results.
// make check runs this under -race at -cpu 1,2,4, crossing the host
// GOMAXPROCS axis with the engine's own Options.Workers.

// checkWorkerInvariance runs prog through engine.Run at 1, 2 and 4 workers
// and asserts byte-identical trace events, bitwise-equal accounting and
// bitwise-equal values across the runs (floats included: the engine preserves
// per-destination accumulation order, so even inexact sums may not drift with
// the worker count).
func checkWorkerInvariance[V comparable, A any](t *testing.T, name string, prog engine.Program[V, A], pl *engine.Placement, cl *cluster.Cluster, opts engine.Options) {
	t.Helper()
	var (
		baseEvents []trace.Event
		baseRes    *engine.Result
		baseVals   []V
		baseW      int
	)
	for _, w := range []int{1, 2, 4} {
		rec := trace.NewRecorder()
		o := withWorkers(opts, w)
		o.Trace = rec
		res, vals, err := engine.Run[V, A](prog, pl, cl, o)
		if err != nil {
			t.Fatalf("%s/workers=%d: %v", name, w, err)
		}
		if baseRes == nil {
			baseEvents, baseRes, baseVals, baseW = rec.Events, res, vals, w
			if len(baseEvents) == 0 {
				t.Fatalf("%s/workers=%d: no trace events recorded", name, w)
			}
			continue
		}
		label := fmt.Sprintf("%s/workers=%d-vs-%d", name, w, baseW)
		sameAccounting(t, label, baseRes, res)
		if i, a, b := firstDiff(baseEvents, rec.Events); i < len(baseEvents) || len(rec.Events) != len(baseEvents) {
			t.Fatalf("%s: trace streams diverge at event %d: %+v vs %+v (lengths %d, %d)",
				label, i, a, b, len(baseEvents), len(rec.Events))
		}
		for v := range vals {
			if vals[v] != baseVals[v] {
				t.Fatalf("%s: vertex %d value %v != %v", label, v, vals[v], baseVals[v])
			}
		}
	}
}

func TestParallelEngineWorkerCountInvariance(t *testing.T) {
	g := equivGraph(t)
	cl := heteroCluster(t)
	pl := moduloPlacement(t, g, 4)

	// Chaos options: checkpoints, a crash, recovery replay — the restore
	// paths must be just as worker-count-deterministic as steady state.
	chaos := engine.Options{Fault: &engine.FaultConfig{
		Injector:        chaosSchedule(),
		CheckpointEvery: 2,
		Policy:          engine.RecoverCheckpoint,
	}}

	for _, mode := range []struct {
		name string
		opts func() engine.Options
	}{
		{"faultfree", func() engine.Options { return engine.Options{} }},
		{"chaos", func() engine.Options { return chaos }},
	} {
		t.Run(mode.name, func(t *testing.T) {
			t.Run("pagerank", func(t *testing.T) {
				checkWorkerInvariance[prState, float64](t, "pagerank", NewPageRank(), pl, cl, mode.opts())
			})
			t.Run("components", func(t *testing.T) {
				checkWorkerInvariance[uint32, uint32](t, "components", NewConnectedComponents(), pl, cl, mode.opts())
			})
			t.Run("bfs", func(t *testing.T) {
				checkWorkerInvariance[int32, int32](t, "bfs", NewBFS(), pl, cl, mode.opts())
			})
			t.Run("hops", func(t *testing.T) {
				checkWorkerInvariance[float64, float64](t, "hops", hopsProgram{}, pl, cl, mode.opts())
			})
			t.Run("core-cascade", func(t *testing.T) {
				checkWorkerInvariance[coreState, int32](t, "core-cascade", cascadeProgram{k: 3}, pl, cl, mode.opts())
			})
			t.Run("clusterbfs", func(t *testing.T) {
				// The 264-byte packed state rides the same sharded apply
				// sweep; the trace stream may not feel the worker count.
				prog := &ClusterBFS{Sources: spreadSources(g.NumVertices, MaxBatchSources), MaxIters: 1000}
				checkWorkerInvariance[ClusterState, uint64](t, "clusterbfs", prog, pl, cl, mode.opts())
			})
		})
	}
}
